package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"assocmine/internal/gen"
	"assocmine/internal/matrix"
)

// truthDir caches counted truth across runs. Only truth is cached:
// every run writes the files it mines and serves afresh with the
// checkout's own encoders, so a change to a file format is always
// measured. It is relative to the directory the benchmark runs from
// (the repository root).
var truthDir = filepath.Join(".bench_build", "truth")

// input is one generated dataset: a streaming Zipf source written in
// one of the two row-major file formats.
type input struct {
	Shape  string // "clicks" or "market" (see gen.ZipfSource.Kind)
	Rows   int
	Cols   int
	Seed   uint64
	Format string // "arows" or "carows"
}

// source streams the first rows rows of the input. Sources with the
// same seed share their prefixes, which is what makes an append to a
// served file equal to regenerating it longer.
func (in input) source(rows int) *gen.ZipfSource {
	return &gen.ZipfSource{Kind: in.Shape, Rows: rows, Cols: in.Cols, Seed: in.Seed}
}

// digest hashes the rows the generator emits for in, so cached truth
// is keyed by the data itself: a change to the generator recounts it.
func (in input) digest() (string, error) {
	h := fnv.New64a()
	var buf [4]byte
	word := func(v int) {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	word(in.Rows)
	word(in.Cols)
	err := in.source(in.Rows).Scan(func(row int, cols []int32) error {
		word(row)
		word(len(cols))
		for _, c := range cols {
			word(int(c))
		}
		return nil
	})
	return fmt.Sprintf("%s-%dx%d-%016x", in.Shape, in.Rows, in.Cols, h.Sum64()), err
}

// writeRows writes src to path in the given format.
func writeRows(path, format string, src matrix.RowSource) error {
	err := writeAtomic(path, func(w io.Writer) error {
		switch format {
		case "arows":
			return matrix.WriteRowBinary(w, src)
		case "carows":
			return matrix.WriteRowCompressed(w, src)
		}
		return fmt.Errorf("unknown format %q", format)
	})
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// writeAtomic writes path through a temporary file in its directory and
// a rename, so readers never see a half-written file.
func writeAtomic(path string, fill func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	if err := fill(w); err != nil {
		tmp.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
