package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/metrics"
	"sdssort/internal/psort"
	"sdssort/internal/radix"
	"sdssort/internal/workload"
)

// TestSortZeroCopyMatchesMarshal: the zero-copy exchange is a pure
// acceleration, so with the same input and the same local ordering the
// outputs of the zero-copy codec and its marshal-path twin must be
// identical record for record — across the sync-merge, sync-resort,
// overlap and staged shapes. Radix dispatch is disabled on both sides
// so the only difference under test is the exchange encoding.
func TestSortZeroCopyMatchesMarshal(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	configs := []struct {
		name string
		opt  Options
		// The overlap exchange merges sources in arrival order, so the
		// placement of equal keys varies run to run even within one
		// encoding path; for it both runs are checked for sorted
		// permutations instead of record-for-record equality.
		exact bool
	}{
		{"sync-merge", func() Options { o := DefaultOptions(); o.TauO = 0; o.TauS = 1 << 20; o.TauM = 0; return o }(), true},
		{"sync-resort", func() Options { o := DefaultOptions(); o.TauO = 0; o.TauS = 1; o.TauM = 0; return o }(), true},
		{"overlap", func() Options { o := DefaultOptions(); o.TauO = 1 << 20; o.TauM = 0; return o }(), false},
	}
	for _, cfg := range configs {
		for _, stage := range []int64{0, 100} {
			t.Run(fmt.Sprintf("%s/stage%d", cfg.name, stage), func(t *testing.T) {
				in := makeTagged(topo.Size(), 400, zipfGen(63, 1.2))
				opt := cfg.opt
				opt.StageBytes = stage
				opt.DisableRadixDispatch = true
				opt.Exchange = &metrics.ExchangeStats{}
				fast := runSort(t, topo, in, opt)
				checkSorted(t, in, fast, false)
				if !opt.Exchange.ZeroCopyUsed() {
					t.Fatal("zero-copy-capable codec took the marshal path")
				}
				opt.Exchange = &metrics.ExchangeStats{}
				slow := runSortCodec(t, topo, in, marshalTagged, opt)
				if opt.Exchange.ZeroCopyUsed() {
					t.Fatal("non-zero-copy codec took the zero-copy path")
				}
				if cfg.exact {
					equalOutputs(t, slow, fast, cfg.name)
				} else {
					checkSorted(t, in, slow, false)
				}
			})
		}
	}
}

// TestSortNonZeroCopyCodecFallsBack runs the staged exchange with a
// Funcs codec that does not declare zero copy: the sort must fall back
// to the marshal path (2x staging window, zero bytes through the
// zero-copy counters) and still produce sorted output.
func TestSortNonZeroCopyCodecFallsBack(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	if codec.IsZeroCopy(marshalTagged) {
		t.Fatal("test premise broken: Funcs without ZeroCopyOK qualified")
	}
	in := makeTagged(topo.Size(), 300, zipfGen(71, 1.3))
	const stage = 96
	opt := DefaultOptions()
	opt.TauM = 0
	opt.TauO = 0
	opt.StageBytes = stage
	opt.Exchange = &metrics.ExchangeStats{}
	out := runSortCodec(t, topo, in, marshalTagged, opt)
	checkSorted(t, in, out, false)
	if opt.Exchange.ZeroCopyUsed() {
		t.Fatal("non-zero-copy codec moved bytes through the zero-copy path")
	}
	if got, want := opt.Exchange.PeakStagingReserved.Load(), 2*effStage(stage, 16); got != want {
		t.Fatalf("peak staging %d, want the marshal path's 2x window %d", got, want)
	}
}

// TestRadixDispatchComparatorFallback: the LSD dispatch orders by the
// codec's integer key, so a user comparator that disagrees (reverse
// order here) must be detected by the post-sort verification sweep and
// the comparison sort must win. The sorted-output check is the whole
// point: before the sweep a reversed comparator would silently return
// ascending data.
func TestRadixDispatchComparatorFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]int64, 4096)
	for i := range data {
		data[i] = int64(rng.Uint64())
	}
	reverse := func(a, b int64) int {
		switch {
		case a > b:
			return -1
		case a < b:
			return 1
		}
		return 0
	}
	if radix.DispatchLocal(data, codec.Int64{}, reverse) {
		t.Fatal("dispatch claimed success against a disagreeing comparator")
	}
	// The core sort path must recover end to end.
	out, err := cluster.Gather(cluster.Topology{Nodes: 1, CoresPerNode: 1}, cluster.Options{}, func(c *comm.Comm) ([]int64, error) {
		local := append([]int64(nil), data...)
		return Sort(c, local, codec.Int64{}, reverse, DefaultOptions())
	})
	if err != nil {
		t.Fatal(err)
	}
	if !psort.IsSorted(out[0], reverse) {
		t.Fatal("sort with a reverse comparator did not produce descending output")
	}

	// And with the agreeing comparator the dispatch must fire and agree
	// with the comparison sort exactly.
	asc := append([]int64(nil), data...)
	if !radix.DispatchLocal(asc, codec.Int64{}, cmpInt64) {
		t.Fatal("dispatch refused an agreeing comparator")
	}
	ref := append([]int64(nil), data...)
	psort.Sort(ref, cmpInt64)
	for i := range ref {
		if asc[i] != ref[i] {
			t.Fatalf("radix and comparison sorts disagree at %d: %d vs %d", i, asc[i], ref[i])
		}
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// BenchmarkLocalSortIntKeys is the issue's local-ordering acceptance
// benchmark: the LSD radix dispatch against the comparison sort on
// integer keys — the fast path must win.
func BenchmarkLocalSortIntKeys(b *testing.B) {
	const n = 1 << 17
	src := make([]int64, n)
	rng := rand.New(rand.NewSource(9))
	for i := range src {
		src[i] = int64(rng.Uint64())
	}
	data := make([]int64, n)
	b.Run("radix", func(b *testing.B) {
		b.SetBytes(8 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(data, src)
			if !radix.DispatchLocal(data, codec.Int64{}, cmpInt64) {
				b.Fatal("dispatch refused int64 keys")
			}
		}
	})
	b.Run("comparison", func(b *testing.B) {
		b.SetBytes(8 * n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(data, src)
			psort.Sort(data, cmpInt64)
		}
	})
}

// BenchmarkLocalSortFloat64Keys is BenchmarkLocalSortIntKeys for the
// float64 keys of every workload: the in-place MSD dispatch against the
// comparison sort, on Zipf (the paper's α=1.4 skew) and uniform keys.
func BenchmarkLocalSortFloat64Keys(b *testing.B) {
	const n = 1 << 17
	for _, in := range []struct {
		name string
		src  []float64
	}{
		{"zipf", workload.ZipfKeys(9, n, 1.4, workload.DefaultZipfUniverse)},
		{"uniform", workload.Uniform(9, n)},
	} {
		data := make([]float64, n)
		b.Run(in.name+"/radix", func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				copy(data, in.src)
				if !radix.DispatchLocal(data, codec.Float64{}, cmpF) {
					b.Fatal("dispatch refused float64 keys")
				}
			}
		})
		b.Run(in.name+"/comparison", func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				copy(data, in.src)
				psort.Sort(data, cmpF)
			}
		})
	}
}
