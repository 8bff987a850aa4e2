package radix

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
)

var (
	u64 = codec.Uint64{}
	f64 = codec.Float64{}
)

func ident(v uint64) uint64 { return v }

func TestLSDSortMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 100, 10000} {
		data := make([]uint64, n)
		for i := range data {
			data[i] = rng.Uint64()
		}
		want := append([]uint64(nil), data...)
		slices.Sort(want)
		LSDSort(data, ident)
		if !slices.Equal(data, want) {
			t.Fatalf("n=%d mismatch", n)
		}
	}
}

func TestLSDSortSmallUniverse(t *testing.T) {
	// Exercises the skip-pass fast path (most bytes identical).
	rng := rand.New(rand.NewSource(2))
	data := make([]uint64, 5000)
	for i := range data {
		data[i] = uint64(rng.Intn(7))
	}
	want := append([]uint64(nil), data...)
	slices.Sort(want)
	LSDSort(data, ident)
	if !slices.Equal(data, want) {
		t.Fatal("mismatch")
	}
}

func TestLSDSortProperty(t *testing.T) {
	f := func(data []uint64) bool {
		want := append([]uint64(nil), data...)
		slices.Sort(want)
		cp := append([]uint64(nil), data...)
		LSDSort(cp, ident)
		return slices.Equal(cp, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64KeyOrderPreserving(t *testing.T) {
	vals := []float64{-1e300, -3.5, -0, 0, 1e-10, 2, 7.25, 1e300}
	for i := 1; i < len(vals); i++ {
		if !(f64.Uint64Key(vals[i-1]) <= f64.Uint64Key(vals[i])) {
			t.Fatalf("order broken between %v and %v", vals[i-1], vals[i])
		}
	}
	f := func(a, b float64) bool {
		if a != a || b != b { // skip NaN
			return true
		}
		if a < b {
			return f64.Uint64Key(a) < f64.Uint64Key(b)
		}
		if a > b {
			return f64.Uint64Key(a) > f64.Uint64Key(b)
		}
		return f64.Uint64Key(a) == f64.Uint64Key(b) || (a == 0 && b == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelRadixSort(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(int64(p)))
		in := make([][]uint64, p)
		for r := range in {
			rows := make([]uint64, 500)
			for i := range rows {
				rows[i] = rng.Uint64()
			}
			in[r] = rows
		}
		topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
		out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]uint64, error) {
			local := append([]uint64(nil), in[c.Rank()]...)
			return Sort(c, local, u64, ident, Options{})
		})
		if err != nil {
			t.Fatal(err)
		}
		var flatIn, flatOut []uint64
		for _, part := range in {
			flatIn = append(flatIn, part...)
		}
		for _, part := range out {
			flatOut = append(flatOut, part...)
		}
		if !slices.IsSorted(flatOut) {
			t.Fatalf("p=%d: not sorted", p)
		}
		slices.Sort(flatIn)
		if !slices.Equal(flatIn, flatOut) {
			t.Fatalf("p=%d: not a permutation", p)
		}
	}
}

func TestParallelRadixClusteredKeys(t *testing.T) {
	// Keys concentrated in a narrow band of the top-bit space: the
	// histogram cut must still produce a legal partition.
	const p = 4
	rng := rand.New(rand.NewSource(9))
	in := make([][]uint64, p)
	for r := range in {
		rows := make([]uint64, 400)
		for i := range rows {
			rows[i] = uint64(1)<<52 + uint64(rng.Intn(1000))
		}
		in[r] = rows
	}
	topo := cluster.Topology{Nodes: p, CoresPerNode: 1}
	out, err := cluster.Gather(topo, cluster.Options{}, func(c *comm.Comm) ([]uint64, error) {
		local := append([]uint64(nil), in[c.Rank()]...)
		return Sort(c, local, u64, ident, Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	var flat []uint64
	for _, part := range out {
		flat = append(flat, part...)
	}
	if !slices.IsSorted(flat) {
		t.Fatal("not sorted")
	}
	if len(flat) != p*400 {
		t.Fatalf("lost records: %d", len(flat))
	}
}
