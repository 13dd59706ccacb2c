package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"assocmine/internal/serve"
)

// The append side of the serving loop: every appendEvery-th operation
// of client 0 rewrites the served file with appendRows more rows and
// calls Refresh. maxAppends bounds the rows the checker prepares.
const (
	appendEvery = 16
	appendRows  = 100
	maxAppends  = 400
)

// serveJob is what the orchestrator hands the serving child.
type serveJob struct {
	Path    string // working copy of the served file; appends rewrite it
	Input   input  // the dataset the working copy starts as
	Clients int
	Seconds float64 // the traced run's serving time
}

// serveReport is the serving child's answer to one slice.
type serveReport struct {
	SetupS      []float64
	LatMS       []float64 // read requests, all clients
	Ops         int       // completed operations, appends included
	LoopS       float64
	RefreshMS   []float64
	SubMS       int // read requests answered in under a millisecond
	CacheHits   int64
	CacheMisses int64
	Attempted   int
	Failed      int
	Problems    []string
}

// add pools another slice's report into r.
func (r *serveReport) add(o serveReport) {
	r.SetupS = append(r.SetupS, o.SetupS...)
	r.LatMS = append(r.LatMS, o.LatMS...)
	r.Ops += o.Ops
	r.LoopS += o.LoopS
	r.RefreshMS = append(r.RefreshMS, o.RefreshMS...)
	r.SubMS += o.SubMS
	r.CacheHits += o.CacheHits
	r.CacheMisses += o.CacheMisses
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for _, p := range o.Problems {
		r.Problems = appendProblem(r.Problems, p)
	}
}

// request is one operation of the schedule: a read against an endpoint
// with a JSON body, or an append.
type request struct {
	Endpoint string // "pairs", "topk", "toppairs", "expr" or "append"
	Body     string
}

// schedule is one client's deterministic operation stream. The same
// (seed, client, cols) always yields the same sequence.
type schedule struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	client  int
	n       int
	pending []string
}

// blockMix is the make-up of every block of twenty reads. Each block is
// shuffled, so every seed sends the same mix over whole blocks and
// only the order and the keys differ. Pair thresholds are drawn half
// below 0.6, where the planner scans the K-MH sketches, and half from
// 0.6 up, where it probes the M-LSH bands.
var blockMix = []string{
	"pairs-low", "pairs-low", "pairs-low", "pairs-low", "pairs-low", "pairs-low",
	"pairs-high", "pairs-high", "pairs-high", "pairs-high", "pairs-high",
	"topk", "topk", "topk", "topk",
	"toppairs", "toppairs",
	"similarity", "similarity", "confidence",
}

func newSchedule(seed uint64, client, cols int) *schedule {
	rng := rand.New(rand.NewSource(int64(seed*1_000_003 + uint64(client))))
	return &schedule{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(cols-1)), client: client}
}

// next draws the client's next operation. Thresholds come from a grid
// and columns from the data's own Zipf popularity, so keys repeat and
// the response cache answers part of the stream.
func (s *schedule) next() request {
	s.n++
	if s.client == 0 && s.n%appendEvery == 0 {
		return request{Endpoint: "append"}
	}
	if len(s.pending) == 0 {
		s.pending = append(s.pending, blockMix...)
		s.rng.Shuffle(len(s.pending), func(i, j int) { s.pending[i], s.pending[j] = s.pending[j], s.pending[i] })
	}
	kind := s.pending[0]
	s.pending = s.pending[1:]
	col := func() int { return int(s.zipf.Uint64()) }
	threshold := func(lo, steps int) string {
		return strconv.FormatFloat(float64(lo+2*s.rng.Intn(steps))/100, 'f', 2, 64)
	}
	switch kind {
	case "pairs-low":
		return request{"pairs", `{"threshold":` + threshold(30, 15) + `}`}
	case "pairs-high":
		return request{"pairs", `{"threshold":` + threshold(60, 16) + `}`}
	case "topk":
		return request{"topk", fmt.Sprintf(`{"col":%d,"k":%d,"floor":%v}`, col(), 5+5*s.rng.Intn(2), topkFloor)}
	case "toppairs":
		return request{"toppairs", fmt.Sprintf(`{"n":%d}`, 5+s.rng.Intn(46))}
	case "similarity":
		return request{"expr", fmt.Sprintf(`{"op":"similarity","a":"%d","b":"%d|%d"}`, col(), col(), col())}
	default:
		return request{"expr", fmt.Sprintf(`{"op":"confidence","a":"%d","b":"%d"}`, col(), col())}
	}
}

// defaultFloor is the server's top-k search floor when a request sets
// none, as toppairs requests do. Topk requests set topkFloor, which
// caps the threshold descent at five steps (0.9, 0.63, 0.44, 0.31,
// 0.3) and so keeps their latency within one mode.
const (
	defaultFloor = 0.05
	topkFloor    = 0.3
)

// generations tracks which index generations a request may have seen:
// generation g holds the first rowsAt[g] rows. started counts refreshes
// begun, done refreshes returned.
type generations struct {
	rowsAt  []int
	started atomic.Int64
	done    atomic.Int64
}

// serveLoop is the state the clients share.
type serveLoop struct {
	job   serveJob
	srv   *serve.Server
	h     http.Handler
	sets  *matrixSets
	gens  *generations
	mu    sync.Mutex
	first map[string]uint64 // (endpoint, body, generation) -> hash of the first body
}

// prepareServed writes the served file at its starting length and
// returns the checker's view of every row the run may append.
func prepareServed(j serveJob) (*matrixSets, error) {
	in := j.Input
	all := in.Rows + maxAppends*appendRows
	sets, err := buildSets(in.source(all), all, in.Cols)
	if err != nil {
		return nil, err
	}
	return sets, writeRows(j.Path, in.Format, in.source(in.Rows))
}

func newServeLoop(j serveJob, srv *serve.Server, sets *matrixSets) *serveLoop {
	gens := &generations{rowsAt: make([]int, maxAppends+1)}
	gens.rowsAt[0] = j.Input.Rows
	return &serveLoop{job: j, srv: srv, h: srv.Handler(), sets: sets, gens: gens, first: make(map[string]uint64)}
}

// setUp is the body of the set-up child, which only times the resident
// index being built: each slice builds it once with serve.NewFromFile
// over path, a copy of the served file at its starting length, and
// releases it; the warm-up builds it untimed. Kept apart from the
// serving process, the set-ups spread over the run like every other
// sample, yet neither empty the serving index's cache nor enter its
// peak resident set.
func setUp(path string, timed bool) *serveReport {
	rep := &serveReport{Attempted: 1}
	debug.FreeOSMemory()
	t0 := time.Now()
	_, err := serve.NewFromFile(path, serve.Options{})
	d := time.Since(t0)
	if err != nil {
		rep.Failed++
		rep.Problems = []string{fmt.Sprintf("NewFromFile: %v", err)}
		return rep
	}
	if timed {
		rep.SetupS = []float64{d.Seconds()}
	}
	return rep
}

// servingChild is the state of the serving child, which builds its
// index in the warm-up and then serves for the whole run, a slice at a
// time. The index, its response cache, the clients' schedules and the
// generations carry over from slice to slice.
type servingChild struct {
	j         serveJob
	l         *serveLoop // nil until the warm-up has built the index
	scheds    []*schedule
	refreshes int // refreshes measured so far
}

func newServingChild(j serveJob) *servingChild {
	c := &servingChild{j: j}
	for i := 0; i < j.Clients; i++ {
		c.scheds = append(c.scheds, newSchedule(j.Input.Seed, i, j.Input.Cols))
	}
	return c
}

// warmUp writes the served file and builds the index over it.
func (c *servingChild) warmUp() (*serveReport, error) {
	rep := &serveReport{Attempted: 1}
	sets, err := prepareServed(c.j)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewFromFile(c.j.Path, serve.Options{})
	if err != nil {
		rep.Failed++
		rep.Problems = appendProblem(rep.Problems, fmt.Sprintf("NewFromFile: %v", err))
		return rep, nil
	}
	c.l = newServeLoop(c.j, srv, sets)
	return rep, nil
}

// slice serves for a time budget: it ends seconds after it starts
// unless client 0 is still on the run's first refresh.
func (c *servingChild) slice(seconds float64) *serveReport {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	rep := &serveReport{}
	if c.l == nil {
		// The index could not be built; the warm-up counted that.
		return rep
	}
	l := c.l
	coll := l.srv.Collector()
	hits, misses := coll.Counter("cache_hits"), coll.Counter("cache_misses")
	debug.FreeOSMemory()
	start := time.Now()
	var wg sync.WaitGroup
	results := make([]clientResult, len(c.scheds))
	for i := range c.scheds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Client 0 of a process too slow to reach its first append
			// by the deadline carries on until it has refreshed once,
			// so every run measures a refresh.
			results[i] = l.client(c.scheds[i], deadline, i == 0 && c.refreshes == 0)
		}(i)
	}
	wg.Wait()
	rep.LoopS = time.Since(start).Seconds()
	for _, r := range results {
		rep.LatMS = append(rep.LatMS, r.latMS...)
		rep.RefreshMS = append(rep.RefreshMS, r.refreshMS...)
		rep.Ops += r.ops
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		for _, p := range r.problems {
			rep.Problems = appendProblem(rep.Problems, p)
		}
	}
	c.refreshes += len(rep.RefreshMS)
	for _, v := range rep.LatMS {
		if v < 1 {
			rep.SubMS++
		}
	}
	rep.CacheHits = coll.Counter("cache_hits") - hits
	rep.CacheMisses = coll.Counter("cache_misses") - misses
	return rep
}

type clientResult struct {
	latMS, refreshMS  []float64
	ops               int
	attempted, failed int
	problems          []string
}

// client runs one closed-loop client on its schedule until the
// deadline, and past it until it has refreshed once if untilRefresh is
// set: it sends its next operation only after checking the answer to
// the previous one.
func (l *serveLoop) client(sched *schedule, deadline time.Time, untilRefresh bool) clientResult {
	var res clientResult
	for time.Now().Before(deadline) || (untilRefresh && len(res.refreshMS) == 0 && res.failed == 0) {
		req := sched.next()
		res.attempted++
		var err error
		if req.Endpoint == "append" {
			var ms float64
			ms, err = l.appendAndRefresh()
			if err == nil {
				res.refreshMS = append(res.refreshMS, ms)
			}
		} else {
			var ms float64
			var probs []string
			ms, _, probs, err = l.read(req)
			if err == nil {
				res.latMS = append(res.latMS, ms)
			}
			for _, p := range probs {
				res.problems = appendProblem(res.problems, req.Endpoint+" "+req.Body+": "+p)
			}
		}
		if err != nil {
			res.failed++
			res.problems = appendProblem(res.problems, req.Endpoint+" "+req.Body+": "+err.Error())
			continue
		}
		res.ops++
	}
	return res
}

// appendAndRefresh rewrites the served file one batch longer, times
// Server.Refresh, and checks that /healthz then reports exactly the
// rows written.
func (l *serveLoop) appendAndRefresh() (float64, error) {
	g := int(l.gens.started.Load()) + 1
	if g > maxAppends {
		return 0, fmt.Errorf("more than %d appends in one run", maxAppends)
	}
	in := l.job.Input
	rows := in.Rows + g*appendRows
	if err := writeRows(l.job.Path, in.Format, in.source(rows)); err != nil {
		return 0, err
	}
	l.gens.rowsAt[g] = rows
	l.gens.started.Store(int64(g))
	t0 := time.Now()
	n, err := l.srv.Refresh()
	d := time.Since(t0)
	l.gens.done.Store(int64(g))
	if err != nil {
		return 0, fmt.Errorf("refresh: %w", err)
	}
	if n != appendRows {
		return 0, fmt.Errorf("refresh folded %d rows, %d were appended", n, appendRows)
	}
	w := httptest.NewRecorder()
	l.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hr serve.HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &hr); err != nil {
		return 0, fmt.Errorf("healthz: %w", err)
	}
	if hr.Rows != rows {
		return 0, fmt.Errorf("healthz reports %d rows after a refresh to %d", hr.Rows, rows)
	}
	return float64(d) / float64(time.Millisecond), nil
}

// read sends one query through the handler, timing only the handler,
// and checks the answer, which it also returns. A non-200 status is a
// failed operation.
func (l *serveLoop) read(req request) (float64, []byte, []string, error) {
	lo := int(l.gens.done.Load())
	r := httptest.NewRequest(http.MethodPost, "/v1/"+req.Endpoint, bytes.NewReader([]byte(req.Body)))
	w := httptest.NewRecorder()
	t0 := time.Now()
	l.h.ServeHTTP(w, r)
	d := time.Since(t0)
	hi := int(l.gens.started.Load())
	if w.Code != http.StatusOK {
		return 0, nil, nil, fmt.Errorf("status %d: %s", w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	body := w.Body.Bytes()
	probs := l.checkAnswer(req, body, lo, hi)
	if lo == hi {
		probs = append(probs, l.checkRepeat(req, body, lo)...)
	}
	return float64(d) / float64(time.Millisecond), body, probs, nil
}

// checkRepeat holds every answer for a key within one generation
// byte-identical to the first one seen, cached or computed.
func (l *serveLoop) checkRepeat(req request, body []byte, gen int) []string {
	h := fnv.New64a()
	h.Write(body)
	sum := h.Sum64()
	key := req.Endpoint + "\x00" + req.Body + "\x00" + strconv.Itoa(gen)
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.first[key]; !ok {
		l.first[key] = sum
	} else if prev != sum {
		return []string{fmt.Sprintf("answer differs from the first answer to the same request in generation %d", gen)}
	}
	return nil
}

// scoredPair is a reported pair with its similarity.
type scoredPair struct {
	i, j int
	sim  float64
}

func (l *serveLoop) checkAnswer(req request, body []byte, lo, hi int) []string {
	switch req.Endpoint {
	case "pairs", "toppairs":
		var q struct {
			Threshold float64 `json:"threshold"`
			N         int     `json:"n"`
		}
		var resp serve.PairsResponse
		if err := decodeBoth(req.Body, &q, body, &resp); err != nil {
			return []string{err.Error()}
		}
		min := q.Threshold
		if req.Endpoint == "toppairs" {
			min = defaultFloor
			if len(resp.Pairs) > q.N {
				return []string{fmt.Sprintf("%d pairs for n=%d", len(resp.Pairs), q.N)}
			}
		}
		if resp.Count != len(resp.Pairs) {
			return []string{fmt.Sprintf("count %d but %d pairs", resp.Count, len(resp.Pairs))}
		}
		ps := make([]scoredPair, len(resp.Pairs))
		for k, p := range resp.Pairs {
			ps[k] = scoredPair{p.I, p.J, p.Similarity}
		}
		return l.checkPairs(ps, min, lo, hi)
	case "topk":
		var q struct {
			Col   int     `json:"col"`
			K     int     `json:"k"`
			Floor float64 `json:"floor"`
		}
		var resp serve.TopKResponse
		if err := decodeBoth(req.Body, &q, body, &resp); err != nil {
			return []string{err.Error()}
		}
		if resp.Col != q.Col || len(resp.Neighbors) > q.K {
			return []string{fmt.Sprintf("answer for col %d with %d neighbors, asked col %d k %d", resp.Col, len(resp.Neighbors), q.Col, q.K)}
		}
		ps := make([]scoredPair, len(resp.Neighbors))
		for k, nb := range resp.Neighbors {
			ps[k] = scoredPair{q.Col, nb.Col, nb.Similarity}
		}
		return l.checkPairs(ps, q.Floor, lo, hi)
	case "expr":
		var resp serve.ExprResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return []string{err.Error()}
		}
		if !(resp.Value >= 0 && resp.Value <= 1) {
			return []string{fmt.Sprintf("value %v outside [0,1]", resp.Value)}
		}
	}
	return nil
}

func decodeBoth(reqBody string, q any, body []byte, resp any) error {
	if err := json.Unmarshal([]byte(reqBody), q); err != nil {
		return fmt.Errorf("request: %w", err)
	}
	if err := json.Unmarshal(body, resp); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	return nil
}

// checkPairs requires distinct pairs of distinct columns, similarities
// at or above min in non-increasing order, and one index generation in
// [lo, hi] over whose rows every similarity is the exact Jaccard.
func (l *serveLoop) checkPairs(ps []scoredPair, min float64, lo, hi int) []string {
	seen := make(map[[2]int]bool, len(ps))
	for k, p := range ps {
		key := [2]int{p.i, p.j}
		if p.i > p.j {
			key = [2]int{p.j, p.i}
		}
		if p.i == p.j || seen[key] {
			return []string{fmt.Sprintf("pair (%d,%d) repeated or a self pair", p.i, p.j)}
		}
		seen[key] = true
		if p.sim < min || math.IsNaN(p.sim) {
			return []string{fmt.Sprintf("pair (%d,%d) similarity %v below %v", p.i, p.j, p.sim, min)}
		}
		if k > 0 && p.sim > ps[k-1].sim {
			return []string{fmt.Sprintf("pair %d (%v) ranks below a less similar pair (%v)", k, p.sim, ps[k-1].sim)}
		}
	}
	for g := lo; g <= hi; g++ {
		if l.exactAt(ps, l.gens.rowsAt[g]) {
			return nil
		}
	}
	return []string{fmt.Sprintf("similarities are not the exact Jaccard of any generation in [%d,%d]", lo, hi)}
}

func (l *serveLoop) exactAt(ps []scoredPair, rows int) bool {
	for _, p := range ps {
		if p.i < 0 || p.j < 0 || p.i >= l.sets.cols || p.j >= l.sets.cols {
			return false
		}
		if s, ok := l.sets.jaccardUpTo(p.i, p.j, rows); !ok || s != p.sim {
			return false
		}
	}
	return true
}
