package main

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"sdssort/internal/codec"
)

// writeShards splits sorted into p shards of the given sizes (in
// records) and writes them under dir, returning the paths.
func writeShards(t *testing.T, dir string, sorted []float64, sizes []int) []string {
	t.Helper()
	paths := make([]string, len(sizes))
	off := 0
	for r, n := range sizes {
		paths[r] = filepath.Join(dir, "shard."+strconv.Itoa(r))
		b := codec.EncodeSlice(f64, nil, sorted[off:off+n])
		if err := os.WriteFile(paths[r], b, 0o644); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	return paths
}

// reference writes the sorted keys 0..999, each twice, and returns
// them with the reference file's path.
func reference(t *testing.T) ([]float64, string) {
	t.Helper()
	keys := make([]float64, 2000)
	for i := range keys {
		keys[i] = float64((i * 7919) % 1000)
	}
	slices.Sort(keys)
	path := filepath.Join(t.TempDir(), "ref")
	if err := os.WriteFile(path, codec.EncodeSlice(f64, nil, keys), 0o644); err != nil {
		t.Fatal(err)
	}
	return keys, path
}

func TestCheckShardsAcceptsTheReferenceSort(t *testing.T) {
	keys, ref := reference(t)
	sizes, err := checkShards(ref, writeShards(t, t.TempDir(), keys, []int{600, 1400}))
	if err != nil {
		t.Fatal(err)
	}
	if got := rdfa(sizes); got != 1.4 {
		t.Fatalf("rdfa = %v, want 1.4 (1400 of a mean 1000)", got)
	}
}

func TestCheckShardsCatchesTwoSwappedRecords(t *testing.T) {
	keys, ref := reference(t)
	bad := slices.Clone(keys)
	bad[400], bad[1500] = bad[1500], bad[400]
	if _, err := checkShards(ref, writeShards(t, t.TempDir(), bad, []int{1000, 1000})); err == nil {
		t.Fatal("a shard with two records swapped passed the check")
	}
}

func TestCheckShardsCatchesADroppedRecord(t *testing.T) {
	keys, ref := reference(t)
	bad := slices.Delete(slices.Clone(keys), 1200, 1201)
	if _, err := checkShards(ref, writeShards(t, t.TempDir(), bad, []int{1000, 999})); err == nil {
		t.Fatal("a shard with one record dropped passed the check")
	}
	// The same loss at the very end, where only the total length shows it.
	bad = keys[:len(keys)-1]
	if _, err := checkShards(ref, writeShards(t, t.TempDir(), bad, []int{1000, 999})); err == nil {
		t.Fatal("output missing its last record passed the check")
	}
}
