// Command assocbench is the repository's benchmark. One run executes
// one workload for a fixed time and prints, as its last line, a JSON
// object with the operations attempted and failed, whether every
// output checked out against truth computed apart from the program,
// and the metrics:
//
//	bash assocbench/run.sh --workload mine-clicks --seed 1 --seconds 55 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured through the root
// API (OpenFileDataset, FileDataset.SimilarPairs) and serve.Server
// alone; --trace 1 prints the per-layer metrics of a separate run that
// times each layer through its own package. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer list every metric a run prints, with its unit.
var endToEnd = [][2]string{
	{"mh.mine_s", "s"}, {"mlsh.mine_s", "s"}, {"bps.mine_s", "s"},
	{"mh.recall", "ratio"}, {"mlsh.recall", "ratio"}, {"bps.recall", "ratio"},
	{"mh.peak_rss_mb", "MiB"}, {"mlsh.peak_rss_mb", "MiB"}, {"bps.peak_rss_mb", "MiB"},
	{"setup_s", "s"}, {"query_p50_ms", "ms"}, {"query_p90_ms", "ms"}, {"qps", "1/s"},
	{"refresh_ms", "ms"}, {"peak_rss_mb", "MiB"},
}

var perLayer = [][2]string{
	{"matrix.scan_s", "s"}, {"matrix.bytes_per_one", "B/one"},
	{"minhash.fold_s", "s"},
	{"candidate.mh_s", "s"}, {"candidate.mh_pairs", "count"}, {"candidate.mh_precision", "ratio"},
	{"lsh.bands_s", "s"}, {"lsh.bucket_pairs", "count"}, {"lsh.pairs", "count"}, {"lsh.precision", "ratio"},
	{"bps.support_s", "s"}, {"bps.sample_s", "s"}, {"bps.pairs_sampled", "count"},
	{"bps.sample_accepts", "count"}, {"bps.sample_dups", "count"}, {"bps.precision", "ratio"},
	{"verify.mh_s", "s"}, {"verify.mlsh_s", "s"}, {"verify.bps_s", "s"},
	{"verify.touches", "count"}, {"verify.packed_words", "count"},
	{"serve.pairs_p50_ms", "ms"}, {"serve.topk_p50_ms", "ms"}, {"serve.toppairs_p50_ms", "ms"},
	{"serve.expr_p50_ms", "ms"}, {"serve.cache_hit_ratio", "ratio"},
	{"serve.topk_attempts", "count"}, {"serve.topk_pairs_per_neighbor", "ratio"},
	{"ingest.mh_catchup_ms", "ms"}, {"ingest.kmh_catchup_ms", "ms"}, {"dataset.load_ms", "ms"},
	{"ingest.mh_startup_ms", "ms"}, {"ingest.kmh_startup_ms", "ms"}, {"dataset.startup_load_ms", "ms"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: mine-clicks or mine-market")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same datasets and schedule")
		seconds = flag.Float64("seconds", 55, "measured time of the run")
		trace   = flag.Int("trace", 0, "0 prints end-to-end metrics, 1 the per-layer metrics of a traced run")
		rebuild = flag.Bool("rebuild-truth", false, "recount the workload's mined dataset from its seed, print its make-up and true pairs per threshold, and exit")
		child   = flag.String("child", "", "internal: run one measured child process (mine or serve) reading its job and slices on stdin")
	)
	flag.Parse()
	var err error
	switch {
	case *child != "":
		err = runChild(*child)
	case *rebuild:
		err = rebuildTruth(*name, *seed)
	default:
		err = run(*name, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "assocbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	w = w.withSeed(seed)
	fmt.Printf("env: %s nproc=%d GOMAXPROCS=%d workload=%s seed=%d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), w.Name, seed)
	// Set-up, untimed: the mined file, and for the set-up child a copy
	// of the served file, are written afresh with the checkout's
	// encoders into this run's working directory; the mined file's
	// truth is counted once per generated dataset and cached.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	base := mineJob{Path: filepath.Join(work, "mined."+w.Mine.Format), Threshold: w.Threshold,
		K: w.K, R: w.MLSHR, L: w.MLSHL, Workers: w.Workers}
	if err := writeRows(base.Path, w.Mine.Format, w.Mine.source(w.Mine.Rows)); err != nil {
		return err
	}
	if trace == 0 {
		if base.Truth, err = ensureTruth(w.Mine, w.Threshold); err != nil {
			return err
		}
	}
	serveJ := serveJob{
		Path:    filepath.Join(work, "served."+w.Serve.Format),
		Input:   w.Serve,
		Clients: runtime.NumCPU(),
		Seconds: seconds * (1 - w.MineShare),
	}
	var res *result
	if trace == 1 {
		res, err = runTraced(base, seconds*w.MineShare, serveJ)
	} else {
		setupPath := filepath.Join(work, "setup."+w.Serve.Format)
		if err := writeRows(setupPath, w.Serve.Format, w.Serve.source(w.Serve.Rows)); err != nil {
			return err
		}
		res, err = runEndToEnd(base, w.MineShare, seconds, serveJ, setupPath)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// cycleSeconds is the length of one cycle of an end-to-end run.
const cycleSeconds = 5

// runEndToEnd measures the gated metrics. Each scheme mines in a child
// process of its own, a set-up child times serve.NewFromFile over
// setupPath, and serving runs in a fifth; all five live for the whole
// run. After an untimed warm-up they take turns in cycles of about
// cycleSeconds: every scheme mines for its slice of the cycle's mining
// share, the set-up child builds the index once, then serving takes
// the rest. Each metric so samples the whole run, and a stretch of the
// run when the machine is slower shifts a part of every metric's
// samples rather than all of one metric's. Serving takes the rest of
// each cycle, down to half its share, so the run keeps its length
// whether mining ended early or overran its slices.
func runEndToEnd(base mineJob, mineShare, seconds float64, sj serveJob, setupPath string) (_ *result, err error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(endToEnd, name)} }
	kids := map[string]*child{}
	defer func() {
		for _, k := range kids {
			k.kill()
		}
	}()
	for _, scheme := range schemes {
		job := base
		job.Scheme = scheme
		if kids[scheme], err = startChild("mine", job); err != nil {
			return nil, err
		}
	}
	if kids["setup"], err = startChild("setup", serveJob{Path: setupPath}); err != nil {
		return nil, err
	}
	if kids["serve"], err = startChild("serve", sj); err != nil {
		return nil, err
	}
	var problems []string
	tally := func(attempted, failed int, probs []string) {
		res.Attempted += attempted
		res.Failed += failed
		for _, p := range probs {
			problems = appendProblem(problems, p)
		}
	}
	// Warm-up, before the measured time: one untimed repetition per
	// scheme, the serving index built, one untimed set-up.
	for _, scheme := range schemes {
		var rep mineReport
		if err := kids[scheme].warmUp(&rep); err != nil {
			return nil, err
		}
		tally(rep.Attempted, rep.Failed, rep.Problems)
		if rep.True > 0 {
			fmt.Printf("%s: %d of %d true pairs\n", scheme, rep.Found, rep.True)
			set(scheme+".recall", float64(rep.Found)/float64(rep.True))
		}
	}
	for _, kind := range []string{"setup", "serve"} {
		var rep serveReport
		if err := kids[kind].warmUp(&rep); err != nil {
			return nil, err
		}
		tally(rep.Attempted, rep.Failed, rep.Problems)
	}
	cycles := max(2, int(math.Round(seconds/cycleSeconds)))
	cycle := seconds / float64(cycles)
	start := time.Now()
	times := map[string][]float64{}
	// cost is each scheme's latest repetition time. A cycle's mining
	// time is split in proportion to it, so the schemes make about as
	// many repetitions each, however their costs compare.
	cost := map[string]float64{}
	for _, scheme := range schemes {
		cost[scheme] = schemeShare[scheme]
	}
	var sv serveReport
	c := 0
	for ; c < cycles; c++ {
		// A run that has fallen half a cycle behind, as happens in a
		// slow stretch of the machine, skips its last cycle rather than
		// overrun by it.
		if c > 0 && time.Since(start).Seconds() > seconds-cycle/2 {
			break
		}
		total := 0.0
		for _, scheme := range schemes {
			total += cost[scheme]
		}
		slice := map[string]float64{}
		for _, scheme := range schemes {
			slice[scheme] = cycle * mineShare * cost[scheme] / total
		}
		for _, scheme := range schemes {
			var rep mineReport
			if err := kids[scheme].slice(slice[scheme], &rep); err != nil {
				return nil, err
			}
			if n := len(rep.Times); n > 0 {
				cost[scheme] = rep.Times[n-1]
			}
			tally(rep.Attempted, rep.Failed, rep.Problems)
			times[scheme] = append(times[scheme], rep.Times...)
		}
		var rep serveReport
		if err := kids["setup"].slice(0, &rep); err != nil {
			return nil, err
		}
		sv.add(rep)
		end := start.Add(time.Duration(float64(c+1) * cycle * float64(time.Second)))
		rep = serveReport{}
		if err := kids["serve"].slice(max(time.Until(end).Seconds(), cycle*(1-mineShare)/2), &rep); err != nil {
			return nil, err
		}
		sv.add(rep)
	}
	peak := map[string]float64{}
	for name, k := range kids {
		if peak[name], err = k.finish(); err != nil {
			return nil, err
		}
	}
	for _, scheme := range schemes {
		fmt.Printf("%s: %d timed repetitions in %d cycles\n", scheme, len(times[scheme]), c)
		set(scheme+".mine_s", median(times[scheme]))
		set(scheme+".peak_rss_mb", peak[scheme])
	}
	tally(sv.Attempted, sv.Failed, sv.Problems)
	reads := len(sv.LatMS)
	fmt.Printf("serve: %d operations in %.1fs, %d refreshes, cache hits %.1f%% of lookups, sub-millisecond answers %.1f%% of reads\n",
		sv.Ops, sv.LoopS, len(sv.RefreshMS), pct(sv.CacheHits, sv.CacheHits+sv.CacheMisses), pct(int64(sv.SubMS), int64(reads)))
	if len(sv.SetupS) > 0 {
		set("setup_s", median(sv.SetupS))
	}
	if reads > 0 {
		set("query_p50_ms", percentile(sv.LatMS, 0.50))
		set("query_p90_ms", percentile(sv.LatMS, 0.90))
	}
	if sv.LoopS > 0 {
		set("qps", float64(sv.Ops)/sv.LoopS)
	}
	if len(sv.RefreshMS) > 0 {
		set("refresh_ms", median(sv.RefreshMS))
	}
	set("peak_rss_mb", peak["serve"])
	return finish(res, endToEnd, problems), nil
}

// runTraced measures the per-layer metrics in this process.
func runTraced(base mineJob, mineSeconds float64, sj serveJob) (*result, error) {
	lt := layerTimes{}
	rounds, problems, err := traceMine(base, mineSeconds, lt)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}, Attempted: rounds}
	if err := traceIngest(sj.Input, sj.Path, 5, lt); err != nil {
		return nil, err
	}
	attempted, failed, probs, err := traceServe(sj, lt)
	if err != nil {
		return nil, err
	}
	res.Attempted += attempted
	res.Failed += failed
	problems = append(problems, probs...)
	for _, m := range perLayer {
		if v := lt[m[0]]; len(v) > 0 {
			res.Metrics[m[0]] = metric{Value: median(v), Unit: m[1]}
		}
	}
	var touches, words float64
	for _, s := range schemes {
		touches += median(lt["verify."+s+"_touches"])
		words += median(lt["verify."+s+"_packed_words"])
	}
	res.Metrics["verify.touches"] = metric{Value: touches, Unit: "count"}
	res.Metrics["verify.packed_words"] = metric{Value: words, Unit: "count"}
	return finish(res, perLayer, problems), nil
}

// finish marks the result incorrect when any check failed or any
// metric could not be measured, printing why on standard error.
func finish(res *result, want [][2]string, problems []string) *result {
	for _, m := range want {
		if _, ok := res.Metrics[m[0]]; !ok {
			problems = append(problems, "no measurement for "+m[0])
			res.Metrics[m[0]] = metric{Value: 0, Unit: m[1]}
		}
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	res.Correct = len(problems) == 0
	return res
}

func unitOf(list [][2]string, name string) string {
	for _, m := range list {
		if m[0] == name {
			return m[1]
		}
	}
	panic("unlisted metric " + name)
}

// child is a measured child process of this binary, with GOMAXPROCS =
// nproc. It reads its job, then one command at a time, answering each
// with one report; when its input closes it reports its peak resident
// set and exits.
type child struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	enc  *json.Encoder
	dec  *json.Decoder
	kind string
	done bool
}

// command asks a child to warm up, or to work for Seconds, and report.
type command struct {
	WarmUp  bool
	Seconds float64
}

// childEnd is the last thing a child writes. The child reads its own
// peak resident set: the resource usage a parent collects for a child
// on Linux also counts the parent's own peak, because Go starts
// children with vfork, which shares the parent's memory until exec.
type childEnd struct{ PeakRSSMB float64 }

func startChild(kind string, job any) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", kind)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s child: %w", kind, err)
	}
	c := &child{cmd: cmd, in: in, enc: json.NewEncoder(in), dec: json.NewDecoder(out), kind: kind}
	if err := c.enc.Encode(job); err != nil {
		c.kill()
		return nil, fmt.Errorf("%s child: %w", kind, err)
	}
	return c, nil
}

// warmUp has the child warm up and decodes its report.
func (c *child) warmUp(report any) error { return c.do(command{WarmUp: true}, report) }

// slice has the child work for seconds and decodes its report.
func (c *child) slice(seconds float64, report any) error {
	return c.do(command{Seconds: seconds}, report)
}

func (c *child) do(cmd command, report any) error {
	if err := c.enc.Encode(cmd); err != nil {
		return fmt.Errorf("%s child: %w", c.kind, err)
	}
	if err := c.dec.Decode(report); err != nil {
		return fmt.Errorf("%s child report: %w", c.kind, err)
	}
	return nil
}

// finish closes the child's input, waits for it to exit and returns
// its peak resident set in MiB.
func (c *child) finish() (float64, error) {
	c.in.Close()
	var end childEnd
	err := c.dec.Decode(&end)
	if werr := c.cmd.Wait(); err == nil {
		err = werr
	}
	c.done = true
	if err != nil {
		return 0, fmt.Errorf("%s child: %w", c.kind, err)
	}
	return end.PeakRSSMB, nil
}

// kill ends a child that has not finished and waits for it.
func (c *child) kill() {
	if c.done {
		return
	}
	c.done = true
	c.in.Close()
	c.cmd.Process.Kill()
	c.cmd.Wait()
}

// peakRSSMB is this process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runChild is the body of a child process: it reads its job, then
// answers commands until its input closes.
func runChild(kind string) error {
	dec := json.NewDecoder(os.Stdin)
	enc := json.NewEncoder(os.Stdout)
	var warmUp func() (any, error)
	var slice func(seconds float64) any
	switch kind {
	case "mine":
		var j mineJob
		if err := dec.Decode(&j); err != nil {
			return err
		}
		m, err := newMiner(j)
		if err != nil {
			return err
		}
		warmUp = func() (any, error) { return m.warmUp(), nil }
		slice = func(seconds float64) any { return m.slice(seconds) }
	case "serve":
		var j serveJob
		if err := dec.Decode(&j); err != nil {
			return err
		}
		sc := newServingChild(j)
		warmUp = func() (any, error) { return sc.warmUp() }
		slice = func(seconds float64) any { return sc.slice(seconds) }
	case "setup":
		var j serveJob
		if err := dec.Decode(&j); err != nil {
			return err
		}
		warmUp = func() (any, error) { return setUp(j.Path, false), nil }
		slice = func(float64) any { return setUp(j.Path, true) }
	default:
		return fmt.Errorf("unknown child kind %q", kind)
	}
	for {
		var cmd command
		if err := dec.Decode(&cmd); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		var rep any
		if cmd.WarmUp {
			var err error
			if rep, err = warmUp(); err != nil {
				return err
			}
		} else {
			rep = slice(cmd.Seconds)
		}
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	return enc.Encode(childEnd{PeakRSSMB: peak})
}

// rebuildTruth recounts a workload's mined dataset from its seed,
// replaces the cached truth, and prints the dataset's make-up and its
// true pairs per threshold.
func rebuildTruth(name string, seed uint64) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	w = w.withSeed(seed)
	in := w.Mine
	m, err := buildSets(in.source(in.Rows), in.Rows, in.Cols)
	if err != nil {
		return err
	}
	all := exactPairs(m, 0.1)
	fmt.Printf("%s seed %d: %s, %d rows x %d cols, %d ones\n", w.Name, seed, in.Shape, in.Rows, in.Cols, m.ones())
	atLeast := func(t float64) []truePair {
		var at []truePair
		for _, p := range all {
			if p.sim() >= t {
				at = append(at, p)
			}
		}
		return at
	}
	for _, t := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		fmt.Printf("  s* >= %.1f: %d true pairs\n", t, len(atLeast(t)))
	}
	d, err := in.digest()
	if err != nil {
		return err
	}
	return writeTruth(truthPath(d, w.Threshold), atLeast(w.Threshold))
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank percentile of v (0 for no samples).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
