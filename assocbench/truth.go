package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// matrixSets is a 0/1 matrix held both row-major and column-major, as
// the exact pair counter below needs. It is filled straight from the
// input generator, never from the program's decoders, so a fault in
// the file codecs shows up as a mismatch rather than being copied into
// the truth.
type matrixSets struct {
	rows, cols int
	rowPtr     []int32 // row r holds rowCol[rowPtr[r]:rowPtr[r+1]]
	rowCol     []int32
	colPtr     []int32 // column c holds colRow[colPtr[c]:colPtr[c+1]]
	colRow     []int32
}

// rowScanner is the one method of a row source the counter needs.
type rowScanner interface {
	Scan(fn func(row int, cols []int32) error) error
}

// buildSets reads every row of src. Rows must hold distinct, sorted
// column ids, as the generators emit them.
func buildSets(src rowScanner, rows, cols int) (*matrixSets, error) {
	m := &matrixSets{rows: rows, cols: cols, rowPtr: make([]int32, 1, rows+1)}
	count := make([]int32, cols)
	err := src.Scan(func(row int, cs []int32) error {
		if row != len(m.rowPtr)-1 {
			return fmt.Errorf("truth: row %d out of order", row)
		}
		for _, c := range cs {
			if c < 0 || int(c) >= cols {
				return fmt.Errorf("truth: row %d has column %d outside [0,%d)", row, c, cols)
			}
			count[c]++
		}
		m.rowCol = append(m.rowCol, cs...)
		m.rowPtr = append(m.rowPtr, int32(len(m.rowCol)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(m.rowPtr)-1 != rows {
		return nil, fmt.Errorf("truth: source delivered %d rows, want %d", len(m.rowPtr)-1, rows)
	}
	m.colPtr = make([]int32, cols+1)
	for c := 0; c < cols; c++ {
		m.colPtr[c+1] = m.colPtr[c] + count[c]
	}
	m.colRow = make([]int32, len(m.rowCol))
	fill := append([]int32(nil), m.colPtr[:cols]...)
	for r := 0; r < rows; r++ {
		for _, c := range m.rowCol[m.rowPtr[r]:m.rowPtr[r+1]] {
			m.colRow[fill[c]] = int32(r)
			fill[c]++
		}
	}
	return m, nil
}

func (m *matrixSets) column(c int) []int32 { return m.colRow[m.colPtr[c]:m.colPtr[c+1]] }

func (m *matrixSets) row(r int) []int32 { return m.rowCol[m.rowPtr[r]:m.rowPtr[r+1]] }

// ones is the number of 1-entries.
func (m *matrixSets) ones() int { return len(m.rowCol) }

// truePair is one column pair with its exact intersection and union
// sizes; its Jaccard similarity is inter/union.
type truePair struct {
	I, J         int32
	Inter, Union int32
}

func (p truePair) sim() float64 { return float64(p.Inter) / float64(p.Union) }

// exactPairs returns every column pair whose Jaccard similarity is at
// least threshold, ordered by (I, J). For each column a it walks a's
// rows and counts, per other column b > a, the rows the two share —
// one counter increment per co-occurring pair per row, and no
// candidate filter of any kind.
func exactPairs(m *matrixSets, threshold float64) []truePair {
	var out []truePair
	shared := make([]int32, m.cols)
	var touched []int32
	for a := 0; a < m.cols; a++ {
		touched = touched[:0]
		for _, r := range m.column(a) {
			for _, b := range m.row(int(r)) {
				if int(b) <= a {
					continue
				}
				if shared[b] == 0 {
					touched = append(touched, b)
				}
				shared[b]++
			}
		}
		sort.Slice(touched, func(x, y int) bool { return touched[x] < touched[y] })
		na := int32(len(m.column(a)))
		for _, b := range touched {
			inter := shared[b]
			shared[b] = 0
			p := truePair{I: int32(a), J: b, Inter: inter, Union: na + int32(len(m.column(int(b)))) - inter}
			if p.sim() >= threshold {
				out = append(out, p)
			}
		}
	}
	return out
}

// jaccardUpTo is the exact Jaccard similarity of columns a and b over
// rows [0, n): the similarity a resident index built from the first n
// rows must report. ok is false when neither column has a row there.
func (m *matrixSets) jaccardUpTo(a, b, n int) (sim float64, ok bool) {
	ca, cb := prefixBelow(m.column(a), n), prefixBelow(m.column(b), n)
	inter := 0
	for i, j := 0, 0; i < len(ca) && j < len(cb); {
		switch {
		case ca[i] < cb[j]:
			i++
		case ca[i] > cb[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(ca) + len(cb) - inter
	if union == 0 {
		return 0, false
	}
	return float64(inter) / float64(union), true
}

// prefixBelow returns the leading elements of the sorted rows that are
// below n.
func prefixBelow(rows []int32, n int) []int32 {
	return rows[:sort.Search(len(rows), func(i int) bool { return int(rows[i]) >= n })]
}

// truthSet indexes true pairs by (I, J).
type truthSet map[[2]int32]truePair

func indexTruth(ps []truePair) truthSet {
	t := make(truthSet, len(ps))
	for _, p := range ps {
		t[[2]int32{p.I, p.J}] = p
	}
	return t
}

// ensureTruth returns the path of the cached truth for in at
// threshold, counting and caching it first when absent.
func ensureTruth(in input, threshold float64) (string, error) {
	d, err := in.digest()
	if err != nil {
		return "", err
	}
	path := truthPath(d, threshold)
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	m, err := buildSets(in.source(in.Rows), in.Rows, in.Cols)
	if err != nil {
		return "", err
	}
	return path, writeTruth(path, exactPairs(m, threshold))
}

func truthPath(digest string, threshold float64) string {
	return filepath.Join(truthDir, fmt.Sprintf("%s-s%.2f.txt", digest, threshold))
}

func readTruth(path string) ([]truePair, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ps []truePair
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var p truePair
		if _, err := fmt.Sscan(sc.Text(), &p.I, &p.J, &p.Inter, &p.Union); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		ps = append(ps, p)
	}
	return ps, sc.Err()
}

// writeTruth stores one pair per line as "i j inter union".
func writeTruth(path string, ps []truePair) error {
	return writeAtomic(path, func(w io.Writer) error {
		for _, p := range ps {
			if _, err := fmt.Fprintf(w, "%d %d %d %d\n", p.I, p.J, p.Inter, p.Union); err != nil {
				return err
			}
		}
		return nil
	})
}
