package main

import (
	"fmt"
	"runtime"
)

// workload is one benchmark scenario. Every workload mines a dataset
// through the root API with the three schemes and serves a dataset
// through serve.Server, so each run reports every end-to-end metric;
// the workloads differ in data shape, file format, parallelism and in
// which half gets most of the run's time.
type workload struct {
	Name string
	// Mine is the dataset mined with MH, M-LSH and BPS at Threshold,
	// with K min-hash values and Workers goroutines (0 = nproc).
	Mine      input
	Threshold float64
	K         int
	Workers   int
	// MLSHR and MLSHL set the M-LSH banding; 0 keeps the library
	// defaults (r=5, l=K/5).
	MLSHR, MLSHL int
	// Serve is the dataset the resident index is built over and
	// appended to.
	Serve input
	// MineShare is the share of the run's seconds spent mining; the
	// rest goes to serving.
	MineShare float64
}

var workloads = []workload{
	{
		// Serial mining of a sequential-locality clickstream, stored
		// uncompressed: candidate generation dominates, verify takes
		// the scalar kernel for MH and BPS, and ~1,800 true pairs
		// resolve recall finely.
		Name:      "mine-clicks",
		Mine:      input{Shape: "clicks", Rows: 200_000, Cols: 16_384, Format: "arows"},
		Threshold: 0.6, K: 64, Workers: 1,
		// The served index is half the size of mine-market's in rows
		// and columns, so the two workloads' serving metrics measure
		// different traffic: answers about half as costly, and
		// refreshes over a file half as long.
		Serve:     input{Shape: "clicks", Rows: 10_000, Cols: 4_096, Format: "arows"},
		MineShare: 0.72,
	},
	{
		// Parallel mining of independent Zipf baskets, stored
		// compressed: the .carows decoder, the packed verify kernel and
		// the parallel fan-out paths. About fourteen true pairs, all
		// among the most popular columns, so one missed pair moves
		// recall by 0.07; k=128 keeps MH's misses near s* rare. The
		// default banding detects an s*=0.2 pair with probability
		// 0.004, so M-LSH runs with r=2, l=64 (0.93) here; with the
		// defaults its recall would read 0.
		Name:      "mine-market",
		Mine:      input{Shape: "market", Rows: 125_000, Cols: 8_192, Format: "carows"},
		Threshold: 0.2, K: 128, Workers: 0, MLSHR: 2, MLSHL: 64,
		// The served index is the resident-service tier: a clickstream
		// of 20,000 rows x 8,192 columns, where a computed /v1/pairs
		// answer takes tens of milliseconds. Served market baskets
		// would answer mostly pairs of one-row columns. It is stored as
		// .carows, so set-up and refresh decode the compressed format.
		Serve:     input{Shape: "clicks", Rows: 20_000, Cols: 8_192, Format: "carows"},
		MineShare: 0.55,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// withSeed fixes the seed of both datasets and resolves Workers.
func (w workload) withSeed(seed uint64) workload {
	w.Mine.Seed, w.Serve.Seed = seed, seed
	if w.Workers == 0 {
		w.Workers = runtime.NumCPU()
	}
	return w
}
