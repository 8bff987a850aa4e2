package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"

	"sdssort/internal/codec"
	"sdssort/internal/recordio"
)

// checkBuf is the comparison window. The check streams both sides so
// the harness stays small: on Linux a child's peak RSS (rusage Maxrss)
// starts from the launching process's, so a large harness would inflate
// every rank's peak_rss_mb.
const checkBuf = 1 << 20

// refSortMain is the "refsort" subcommand: it writes the reference sort
// of a float64 record file. It runs in its own process so the harness
// never holds the dataset.
func refSortMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench refsort <in> <out>")
		return 2
	}
	keys, err := recordio.ReadFile(args[0], codec.Float64{})
	if err == nil {
		slices.Sort(keys)
		err = recordio.WriteFile(args[1], codec.Float64{}, keys)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench refsort: %v\n", err)
		return 1
	}
	return 0
}

// checkShards requires the rank-ordered concatenation of the shard
// files to equal the reference file byte for byte, and returns each
// shard's size in bytes.
func checkShards(refPath string, paths []string) ([]int64, error) {
	rf, err := os.Open(refPath)
	if err != nil {
		return nil, err
	}
	defer rf.Close()
	ref := bufio.NewReaderSize(rf, checkBuf)
	sizes := make([]int64, len(paths))
	var off int64
	for r, path := range paths {
		n, err := compareShard(ref, off, path)
		if err != nil {
			return nil, fmt.Errorf("output shard %d: %w", r, err)
		}
		sizes[r] = n
		off += n
	}
	if extra, err := io.Copy(io.Discard, ref); err != nil {
		return nil, err
	} else if extra > 0 {
		return nil, fmt.Errorf("output holds %d bytes, the reference sort %d", off, off+extra)
	}
	return sizes, nil
}

// compareShard checks that the shard at path equals the next bytes of
// ref, which sit at output offset off, and returns the shard's length.
func compareShard(ref io.Reader, off int64, path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	got := make([]byte, checkBuf)
	want := make([]byte, checkBuf)
	var n int64
	for {
		k, err := io.ReadFull(f, got)
		if err == io.EOF {
			return n, nil
		}
		if err != nil && err != io.ErrUnexpectedEOF {
			return n, err
		}
		w, werr := io.ReadFull(ref, want[:k])
		if !bytes.Equal(got[:w], want[:w]) {
			i := 0
			for got[i] == want[i] {
				i++
			}
			at := off + n + int64(i)
			return n, fmt.Errorf("differs from the reference sort at output byte %d (record %d)", at, at/8)
		}
		if werr != nil {
			return n, fmt.Errorf("runs past the end of the reference sort at output byte %d", off+n+int64(w))
		}
		n += int64(k)
	}
}

// rdfa is the paper's load-balance metric: the largest output shard
// divided by the mean shard.
func rdfa(sizes []int64) float64 {
	var total, largest int64
	for _, s := range sizes {
		total += s
		largest = max(largest, s)
	}
	if total == 0 {
		return 0
	}
	return float64(largest) * float64(len(sizes)) / float64(total)
}
