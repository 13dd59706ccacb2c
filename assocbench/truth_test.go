package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"assocmine"
	"assocmine/internal/gen"
)

// rowsOf is a row source over literal rows.
type rowsOf [][]int32

func (r rowsOf) Scan(fn func(int, []int32) error) error {
	for i, cols := range r {
		if err := fn(i, cols); err != nil {
			return err
		}
	}
	return nil
}

func mustSets(t *testing.T, src rowScanner, rows, cols int) *matrixSets {
	t.Helper()
	m, err := buildSets(src, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Columns: c0={r0,r1} c1={r0,r1,r3} c2={r1,r2} c3={r2,r3}.
var handRows = rowsOf{{0, 1}, {0, 1, 2}, {2, 3}, {1, 3}}

func TestExactPairsByHand(t *testing.T) {
	m := mustSets(t, handRows, 4, 4)
	// J(0,1)=2/3, J(0,2)=1/3, J(2,3)=1/3, J(1,2)=J(1,3)=1/4, and c0,c3
	// never share a row.
	want := []truePair{{0, 1, 2, 3}, {0, 2, 1, 3}, {2, 3, 1, 3}}
	if got := exactPairs(m, 0.3); !reflect.DeepEqual(got, want) {
		t.Fatalf("exactPairs(0.3) = %v, want %v", got, want)
	}
	if got := exactPairs(m, 0.2); len(got) != 5 {
		t.Fatalf("exactPairs(0.2) found %d pairs, want 5: %v", len(got), got)
	}
	if s, ok := m.jaccardUpTo(0, 1, 2); !ok || s != 1 {
		t.Fatalf("J(0,1) over rows 0-1 = %v, %v; want 1", s, ok)
	}
	if _, ok := m.jaccardUpTo(3, 3, 2); ok {
		t.Fatal("an empty column pair has no Jaccard similarity")
	}
}

func TestJaccardProperties(t *testing.T) {
	const rows, cols = 400, 60
	src := &gen.ZipfSource{Kind: "clicks", Rows: rows, Cols: cols, Seed: 7, MeanRowLen: 6}
	m := mustSets(t, src, rows, cols)
	counted := indexTruth(exactPairs(m, 1e-9))
	for a := 0; a < cols; a++ {
		for b := 0; b < cols; b++ {
			s, ok := m.jaccardUpTo(a, b, rows)
			s2, ok2 := m.jaccardUpTo(b, a, rows)
			if s != s2 || ok != ok2 {
				t.Fatalf("J(%d,%d)=%v but J(%d,%d)=%v", a, b, s, b, a, s2)
			}
			if ok && (s < 0 || s > 1) {
				t.Fatalf("J(%d,%d)=%v outside [0,1]", a, b, s)
			}
			if a == b && ok && s != 1 {
				t.Fatalf("J(%d,%d)=%v for a column with itself", a, a, s)
			}
			if a < b {
				p, listed := counted[[2]int32{int32(a), int32(b)}]
				if listed != (ok && s > 0) || (listed && p.sim() != s) {
					t.Fatalf("pair (%d,%d): counter %v (listed %v), merge %v", a, b, p.sim(), listed, s)
				}
			}
		}
	}
}

func TestIdenticalColumnsAreOne(t *testing.T) {
	// Columns 1 and 2 hold the same rows.
	m := mustSets(t, rowsOf{{0, 1, 2}, {1, 2}, {0}, {1, 2, 3}}, 4, 4)
	for _, p := range exactPairs(m, 1e-9) {
		if (p.I == 1 && p.J == 2) != (p.sim() == 1) {
			t.Fatalf("pair %v has similarity %v", p, p.sim())
		}
	}
}

func TestBuildSetsRejectsBadRows(t *testing.T) {
	if _, err := buildSets(rowsOf{{0, 4}}, 1, 4); err == nil {
		t.Fatal("column 4 of a 4-column matrix accepted")
	}
	if _, err := buildSets(rowsOf{{0}}, 2, 4); err == nil {
		t.Fatal("a short source accepted")
	}
}

func TestTruthRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "truth.txt")
	want := []truePair{{0, 1, 2, 3}, {5, 9, 7, 7}}
	if err := writeTruth(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readTruth(path)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("readTruth = %v, %v; want %v", got, err, want)
	}
}

func TestCheckMined(t *testing.T) {
	m := mustSets(t, handRows, 4, 4)
	truth := indexTruth(exactPairs(m, 0.3))
	good := []assocmine.Pair{
		{I: 0, J: 1, Similarity: 2.0 / 3},
		{I: 0, J: 2, Similarity: 1.0 / 3},
		{I: 2, J: 3, Similarity: 1.0 / 3},
	}
	if found, probs := checkMined(good, truth, 0.3); found != 3 || len(probs) != 0 {
		t.Fatalf("correct answer: found %d, problems %v", found, probs)
	}
	if found, _ := checkMined(good[:2], truth, 0.3); found != 2 {
		t.Fatalf("partial answer: found %d, want 2", found)
	}
	for name, bad := range map[string][]assocmine.Pair{
		"duplicate":      {good[0], good[0]},
		"below s*":       {{I: 1, J: 2, Similarity: 0.25}},
		"not a true one": {{I: 1, J: 3, Similarity: 0.5}},
		"wrong value":    {{I: 0, J: 1, Similarity: 0.6}},
		"misordered":     {good[1], good[0]},
	} {
		if _, probs := checkMined(bad, truth, 0.3); len(probs) == 0 {
			t.Errorf("%s: no problem reported", name)
		}
	}
}

func TestDigestKeysTheGeneratedRows(t *testing.T) {
	in := input{Shape: "clicks", Rows: 300, Cols: 64, Seed: 5}
	a, errA := in.digest()
	b, errB := in.digest()
	if errA != nil || errB != nil || a != b {
		t.Fatalf("digest not repeatable: %q, %q (%v, %v)", a, b, errA, errB)
	}
	for _, other := range []input{
		{Shape: "clicks", Rows: 300, Cols: 64, Seed: 6},
		{Shape: "market", Rows: 300, Cols: 64, Seed: 5},
		{Shape: "clicks", Rows: 301, Cols: 64, Seed: 5},
	} {
		if d, err := other.digest(); err != nil || d == a {
			t.Errorf("%+v: digest %q, %v; want one different from %q", other, d, err, a)
		}
	}
}
