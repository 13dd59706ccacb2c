package main

import (
	"path/filepath"
	"testing"
)

// TestServeLoopSmall warms the serving child up and runs it for two
// short slices over a small file with two clients, so the race detector sees the shared
// generation tracking, and every check must pass; then it times a
// set-up over the grown file.
func TestServeLoopSmall(t *testing.T) {
	for _, format := range []string{"arows", "carows"} {
		sc := newServingChild(serveJob{
			Path:    filepath.Join(t.TempDir(), "served."+format),
			Input:   input{Shape: "clicks", Rows: 2_000, Cols: 512, Seed: 3, Format: format},
			Clients: 2,
		})
		rep, err := sc.warmUp()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			r := sc.slice(0.5)
			if len(r.LatMS) == 0 {
				t.Fatalf("%s: slice %d read nothing", format, i)
			}
			rep.add(*r)
		}
		rep.add(*setUp(sc.j.Path, true))
		if rep.Failed != 0 || len(rep.Problems) != 0 {
			t.Fatalf("%s: %d of %d operations failed: %v", format, rep.Failed, rep.Attempted, rep.Problems)
		}
		if len(rep.SetupS) != 1 || len(rep.RefreshMS) == 0 {
			t.Fatalf("%s: %d set-ups, %d refreshes", format, len(rep.SetupS), len(rep.RefreshMS))
		}
	}
}
