package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"assocmine"
)

// mineJob is what the orchestrator hands a mining child process: one
// scheme over one dataset file, repeated in slices of the run.
type mineJob struct {
	Path      string // the dataset file
	Truth     string // its cached truth, see ensureTruth
	Scheme    string
	Threshold float64
	K, R, L   int
	Workers   int
}

// mineReport is the child's answer to one slice.
type mineReport struct {
	Times       []float64 // seconds per timed repetition
	Found, True int       // true pairs reported, and all true pairs
	Attempted   int
	Failed      int
	Problems    []string
}

var schemes = []string{"mh", "mlsh", "bps"}

// schemeShare splits the first cycle's mining time between the
// schemes in proportion to the usual cost of one repetition (BPS takes
// about 2.5 times as long as MH or M-LSH on both mining workloads);
// later cycles split it by the costs measured.
var schemeShare = map[string]float64{"mh": 0.22, "mlsh": 0.22, "bps": 0.56}

func (j mineJob) config() (assocmine.Config, error) {
	cfg := assocmine.Config{Threshold: j.Threshold, K: j.K, Workers: j.Workers, Seed: 1}
	switch j.Scheme {
	case "mh":
		cfg.Algorithm = assocmine.MinHash
	case "mlsh":
		cfg.Algorithm = assocmine.MinLSH
		cfg.R, cfg.L = j.R, j.L
	case "bps":
		cfg.Algorithm = assocmine.BPS
	default:
		return cfg, fmt.Errorf("unknown scheme %q", j.Scheme)
	}
	return cfg, nil
}

// mineOnce is the gated operation: open the file and mine it, verified,
// through the root API alone.
func mineOnce(path string, cfg assocmine.Config) (*assocmine.Result, error) {
	fd, err := assocmine.OpenFileDataset(path)
	if err != nil {
		return nil, err
	}
	return fd.SimilarPairs(cfg)
}

// miner is the state of a mining child, which mines one scheme for the
// whole run, a slice at a time.
type miner struct {
	j     mineJob
	cfg   assocmine.Config
	truth truthSet
	last  time.Duration // the last repetition's time
}

func newMiner(j mineJob) (*miner, error) {
	cfg, err := j.config()
	if err != nil {
		return nil, err
	}
	ps, err := readTruth(j.Truth)
	if err != nil {
		return nil, err
	}
	return &miner{j: j, cfg: cfg, truth: indexTruth(ps)}, nil
}

// warmUp runs the untimed warm-up repetition.
func (m *miner) warmUp() *mineReport {
	rep := &mineReport{True: len(m.truth)}
	m.once(rep)
	return rep
}

// slice mines for a time budget: at least one timed repetition, and
// more while the next, expected to take as long as the last, still
// ends within the budget.
func (m *miner) slice(seconds float64) *mineReport {
	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	rep := &mineReport{True: len(m.truth)}
	for len(rep.Times) == 0 || time.Since(start)+m.last <= budget {
		if !m.once(rep) {
			break
		}
		rep.Times = append(rep.Times, m.last.Seconds())
	}
	return rep
}

// once runs and checks one repetition, recording it in rep, and
// reports whether it ran. It starts after a full collection that also
// returns freed memory to the OS, so neither its time nor the peak
// resident set carries the previous repetition's garbage.
func (m *miner) once(rep *mineReport) bool {
	debug.FreeOSMemory()
	t0 := time.Now()
	res, err := mineOnce(m.j.Path, m.cfg)
	m.last = time.Since(t0)
	rep.Attempted++
	if err != nil {
		// A failing scheme fails every repetition alike; stop here.
		rep.Failed++
		rep.Problems = appendProblem(rep.Problems, fmt.Sprintf("%s: %v", m.j.Scheme, err))
		return false
	}
	found, probs := checkMined(res.Pairs, m.truth, m.j.Threshold)
	for _, p := range probs {
		rep.Problems = appendProblem(rep.Problems, m.j.Scheme+": "+p)
	}
	rep.Found = found
	return true
}

// checkMined holds a mining result against the exact truth: every pair
// is a true pair at or above the threshold with exactly the truth's
// Jaccard similarity, none repeats, and similarities never increase
// down the list. It returns the number of true pairs found.
func checkMined(got []assocmine.Pair, truth truthSet, threshold float64) (int, []string) {
	var probs []string
	seen := make(map[[2]int32]bool, len(got))
	for k, p := range got {
		key := [2]int32{int32(p.I), int32(p.J)}
		if p.I >= p.J {
			key = [2]int32{int32(p.J), int32(p.I)}
		}
		switch t, ok := truth[key]; {
		case seen[key]:
			probs = append(probs, fmt.Sprintf("pair (%d,%d) reported twice", p.I, p.J))
		case p.Similarity < threshold:
			probs = append(probs, fmt.Sprintf("pair (%d,%d) similarity %v below s*=%v", p.I, p.J, p.Similarity, threshold))
		case !ok:
			probs = append(probs, fmt.Sprintf("pair (%d,%d) similarity %v is not a true pair", p.I, p.J, p.Similarity))
		case p.Similarity != t.sim():
			probs = append(probs, fmt.Sprintf("pair (%d,%d) similarity %v, exact Jaccard %d/%d", p.I, p.J, p.Similarity, t.Inter, t.Union))
		}
		seen[key] = true
		if k > 0 && p.Similarity > got[k-1].Similarity {
			probs = append(probs, fmt.Sprintf("pair %d (%v) ranks below a less similar pair (%v)", k, p.Similarity, got[k-1].Similarity))
		}
	}
	found := 0
	for key := range seen {
		if _, ok := truth[key]; ok {
			found++
		}
	}
	return found, probs
}

// appendProblem keeps the first few problems; one is enough to fail a
// run, and a systematic fault would otherwise flood the report.
func appendProblem(probs []string, p string) []string {
	if len(probs) < 10 {
		probs = append(probs, p)
	}
	return probs
}
