package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"assocmine"
	"assocmine/internal/bps"
	"assocmine/internal/candidate"
	"assocmine/internal/lsh"
	"assocmine/internal/matrix"
	"assocmine/internal/minhash"
	"assocmine/internal/pairs"
	"assocmine/internal/serve"
	"assocmine/internal/verify"
)

// The traced run times each layer through its own package's public
// entry point, on the inputs the end-to-end run uses, and holds the
// pipeline it assembles from those calls to the root API's answer.
// Defaults the root applies that the assembled pipeline must match:
const (
	rootDelta        = 0.2
	rootSampleBudget = 32
)

// layerTimes accumulates repeated timings and counts of one traced run.
type layerTimes map[string][]float64

func (lt layerTimes) add(name string, v float64) { lt[name] = append(lt[name], v) }

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// traceMine runs the assembled pipelines over the mined file until the
// budget is spent (at least once), checking the first round of each
// scheme against FileDataset.SimilarPairs.
func traceMine(base mineJob, seconds float64, lt layerTimes) (int, []string, error) {
	var probs []string
	start := time.Now()
	round := 0
	for ; round == 0 || since(start) < seconds; round++ {
		if err := traceScan(base.Path, lt); err != nil {
			return 0, nil, err
		}
		for _, scheme := range schemes {
			job := base
			job.Scheme = scheme
			got, err := tracePipeline(job, lt)
			if err != nil {
				return 0, nil, fmt.Errorf("%s pipeline: %w", scheme, err)
			}
			if round > 0 {
				continue
			}
			cfg, err := job.config()
			if err != nil {
				return 0, nil, err
			}
			want, err := mineOnce(job.Path, cfg)
			if err != nil {
				return 0, nil, err
			}
			if p := samePairs(got, want.Pairs); p != "" {
				probs = append(probs, scheme+": assembled pipeline differs from FileDataset.SimilarPairs: "+p)
			}
		}
	}
	return round * len(schemes), probs, nil
}

// traceScan times one bare decode pass and prices the file per 1-entry.
func traceScan(path string, lt layerTimes) error {
	src, err := matrix.OpenFileSource(path)
	if err != nil {
		return err
	}
	runtime.GC()
	var ones int64
	t0 := time.Now()
	err = src.Scan(func(_ int, cols []int32) error {
		ones += int64(len(cols))
		return nil
	})
	lt.add("matrix.scan_s", since(t0))
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	lt.add("matrix.bytes_per_one", float64(fi.Size())/float64(ones))
	return nil
}

// tracePipeline assembles one scheme from its layers, as the root
// package's similarPairs does for a streamed file, and returns the
// verified pairs.
func tracePipeline(j mineJob, lt layerTimes) ([]pairs.Scored, error) {
	src, err := matrix.OpenFileSource(j.Path)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	r, l := j.R, j.L
	if r == 0 {
		r = 5
	}
	if l == 0 {
		l = j.K / r
	}
	runtime.GC()
	var cand []pairs.Scored
	switch j.Scheme {
	case "mh", "mlsh":
		t0 := time.Now()
		var sig *minhash.Signatures
		if j.Workers <= 1 {
			sig, err = minhash.Compute(src, j.K, 1)
		} else {
			sig, _, err = minhash.ComputeStream(src, j.K, 1, j.Workers)
		}
		if err != nil {
			return nil, err
		}
		lt.add("minhash.fold_s", since(t0))
		t0 = time.Now()
		if j.Scheme == "mh" {
			cand, _, err = candidate.RowSortMHParallelProgress(ctx, sig, (1-rootDelta)*j.Threshold, j.Workers, nil)
			if err != nil {
				return nil, err
			}
			lt.add("candidate.mh_s", since(t0))
			lt.add("candidate.mh_pairs", float64(len(cand)))
			break
		}
		set, st, err := lsh.CandidatesParallelProgress(ctx, sig, r, l, j.Workers, nil)
		if err != nil {
			return nil, err
		}
		for _, p := range set.Slice() {
			cand = append(cand, pairs.Scored{Pair: p})
		}
		lt.add("lsh.bands_s", since(t0))
		lt.add("lsh.bucket_pairs", float64(st.BucketPairs))
		lt.add("lsh.pairs", float64(len(cand)))
	case "bps":
		t0 := time.Now()
		sup, err := bps.Supports(src)
		if err != nil {
			return nil, err
		}
		lt.add("bps.support_s", since(t0))
		t0 = time.Now()
		var st bps.Stats
		cand, st, err = bps.Sample(src, sup, bps.Options{
			Threshold: j.Threshold, Delta: rootDelta, Budget: rootSampleBudget, Seed: 1, Workers: j.Workers,
		})
		if err != nil {
			return nil, err
		}
		lt.add("bps.sample_s", since(t0))
		lt.add("bps.pairs_sampled", float64(st.Inspected))
		lt.add("bps.sample_accepts", float64(st.Accepts))
		lt.add("bps.sample_dups", float64(st.Dups))
	}
	t0 := time.Now()
	var out []pairs.Scored
	var vst verify.Stats
	if verify.AutoPack(src.NumRows(), src.NumCols(), cand, 0) {
		out, vst, err = verify.ExactPacked(src, cand, j.Threshold, verify.PackedOptions{Workers: j.Workers})
	} else {
		out, vst, err = verify.ExactParallel(src, cand, j.Threshold, j.Workers)
	}
	if err != nil {
		return nil, err
	}
	lt.add("verify."+j.Scheme+"_s", since(t0))
	lt.add("verify."+j.Scheme+"_touches", float64(vst.Touches))
	lt.add("verify."+j.Scheme+"_packed_words", float64(vst.PackedWords))
	precision := 0.0
	if len(cand) > 0 {
		precision = float64(len(out)) / float64(len(cand))
	}
	switch j.Scheme {
	case "mh":
		lt.add("candidate.mh_precision", precision)
	case "mlsh":
		lt.add("lsh.precision", precision)
	case "bps":
		lt.add("bps.precision", precision)
	}
	pairs.SortScored(out)
	return out, nil
}

// samePairs describes the first difference between the assembled
// pipeline's pairs and the root API's, or returns "".
func samePairs(got []pairs.Scored, want []assocmine.Pair) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d pairs, root API %d", len(got), len(want))
	}
	for k := range got {
		g, w := got[k], want[k]
		if int(g.I) != w.I || int(g.J) != w.J || g.Exact != w.Similarity {
			return fmt.Sprintf("pair %d is (%d,%d,%v), root API (%d,%d,%v)", k, g.I, g.J, g.Exact, w.I, w.J, w.Similarity)
		}
	}
	return ""
}

// traceIngest times the three calls a refresh makes — the MH and K-MH
// catch-ups and the dataset load — once at start-up over the whole
// file and then per appended batch, with the serve package's default
// index sizes.
func traceIngest(in input, path string, appends int, lt layerTimes) error {
	if err := writeRows(path, in.Format, in.source(in.Rows)); err != nil {
		return err
	}
	ingMH, err := assocmine.NewIngest(assocmine.MinHash, in.Cols, 200, 1, 0)
	if err != nil {
		return err
	}
	ingKMH, err := assocmine.NewIngest(assocmine.KMinHash, in.Cols, 256, 1, 0)
	if err != nil {
		return err
	}
	step := func(prefix string) error {
		fd, err := assocmine.OpenFileDataset(path)
		if err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		if _, err := ingMH.CatchUp(fd, 1); err != nil {
			return err
		}
		lt.add("ingest.mh_"+prefix+"_ms", 1000*since(t0))
		t0 = time.Now()
		if _, err := ingKMH.CatchUp(fd, 1); err != nil {
			return err
		}
		lt.add("ingest.kmh_"+prefix+"_ms", 1000*since(t0))
		t0 = time.Now()
		if _, err := fd.Load(); err != nil {
			return err
		}
		if prefix == "startup" {
			lt.add("dataset.startup_load_ms", 1000*since(t0))
		} else {
			lt.add("dataset.load_ms", 1000*since(t0))
		}
		return nil
	}
	if err := step("startup"); err != nil {
		return err
	}
	for a := 1; a <= appends; a++ {
		if err := writeRows(path, in.Format, in.source(in.Rows+a*appendRows)); err != nil {
			return err
		}
		if err := step("catchup"); err != nil {
			return err
		}
	}
	return nil
}

// traceServe replays client 0's schedule serially against a fresh
// server for the budget, timing the handler per endpoint and reading
// the server's own counters around each computed request. It returns
// the operations attempted and failed.
func traceServe(j serveJob, lt layerTimes) (attempted, failed int, probs []string, err error) {
	sets, err := prepareServed(j)
	if err != nil {
		return 0, 0, nil, err
	}
	srv, err := serve.NewFromFile(j.Path, serve.Options{})
	if err != nil {
		return 0, 0, nil, err
	}
	l := newServeLoop(j, srv, sets)
	coll := srv.Collector()
	var topkRuns, topkComputed, topkPairs, topkNeighbors int64
	sched := newSchedule(j.Input.Seed, 0, j.Input.Cols)
	deadline := time.Now().Add(time.Duration(j.Seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		req := sched.next()
		attempted++
		if req.Endpoint == "append" {
			if _, err := l.appendAndRefresh(); err != nil {
				failed++
				probs = appendProblem(probs, "append: "+err.Error())
			}
			continue
		}
		misses, attempts, verified := coll.Counter("cache_misses"), coll.Counter("toppairs_attempts"), coll.Counter("pairs_verified")
		ms, body, p, err := l.read(req)
		if err != nil {
			failed++
			probs = appendProblem(probs, req.Endpoint+": "+err.Error())
			continue
		}
		for _, s := range p {
			probs = appendProblem(probs, req.Endpoint+" "+req.Body+": "+s)
		}
		lt.add("serve."+req.Endpoint+"_p50_ms", ms)
		if req.Endpoint == "topk" && coll.Counter("cache_misses") > misses {
			topkComputed++
			topkRuns += coll.Counter("toppairs_attempts") - attempts
			topkPairs += coll.Counter("pairs_verified") - verified
			var resp serve.TopKResponse
			if err := json.Unmarshal(body, &resp); err == nil {
				topkNeighbors += int64(len(resp.Neighbors))
			}
		}
	}
	hits, misses := coll.Counter("cache_hits"), coll.Counter("cache_misses")
	if hits+misses > 0 {
		lt.add("serve.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	if topkComputed > 0 {
		lt.add("serve.topk_attempts", float64(topkRuns)/float64(topkComputed))
	}
	if topkNeighbors > 0 {
		lt.add("serve.topk_pairs_per_neighbor", float64(topkPairs)/float64(topkNeighbors))
	}
	return attempted, failed, probs, nil
}
