package radix

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sdssort/internal/codec"
	"sdssort/internal/workload"
)

var dispatchLens = []int{0, 1, 2, 63, 64, 65, 4097}

// selfKeyedInputs returns the test inputs for a self-keyed record type:
// each kind draws signed float64 values and conv turns them into
// records.
func selfKeyedInputs[T any](n int, conv func(float64) T) map[string][]T {
	rng := rand.New(rand.NewSource(int64(n) + 7))
	zipf := workload.ZipfKeys(int64(n), n, 1.4, workload.DefaultZipfUniverse)
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 2*rng.Float64() - 1
	}
	sorted := slices.Clone(uniform)
	slices.Sort(sorted)
	reverse := slices.Clone(sorted)
	slices.Reverse(reverse)
	equal := make([]float64, n)
	for i := range equal {
		equal[i] = -0.75
	}
	out := make(map[string][]T)
	for kind, vals := range map[string][]float64{
		"zipf": zipf, "uniform": uniform, "sorted": sorted, "reverse": reverse, "allequal": equal,
	} {
		recs := make([]T, n)
		for i, v := range vals {
			recs[i] = conv(v)
		}
		out[kind] = recs
	}
	return out
}

// checkSelfKeyed asserts DispatchLocal takes data and leaves exactly
// the bytes slices.Sort produces.
func checkSelfKeyed[T cmp.Ordered](t *testing.T, cd codec.Codec[T], conv func(float64) T) {
	t.Helper()
	for _, n := range dispatchLens {
		for kind, data := range selfKeyedInputs(n, conv) {
			want := slices.Clone(data)
			slices.Sort(want)
			if !DispatchLocal(data, cd, cmp.Compare[T]) {
				t.Fatalf("%s n=%d: dispatch refused", kind, n)
			}
			if !slices.Equal(codec.EncodeSlice(cd, nil, data), codec.EncodeSlice(cd, nil, want)) {
				t.Fatalf("%s n=%d: bytes differ from slices.Sort", kind, n)
			}
		}
	}
}

func TestDispatchLocalFloat64(t *testing.T) {
	checkSelfKeyed(t, codec.Float64{}, func(v float64) float64 { return v })
}

func TestDispatchLocalInt64(t *testing.T) {
	checkSelfKeyed(t, codec.Int64{}, func(v float64) int64 { return int64(v * 1e15) })
}

func TestDispatchLocalUint64(t *testing.T) {
	// Negative values wrap to the top of the range, filling the high
	// bytes.
	checkSelfKeyed(t, codec.Uint64{}, func(v float64) uint64 { return uint64(int64(v * 1e15)) })
}

// TestDispatchLocalFullWidthKeys covers keys spread over all eight
// bytes, where every MSD level has work.
func TestDispatchLocalFullWidthKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range dispatchLens {
		u := make([]uint64, n)
		for i := range u {
			u[i] = rng.Uint64()
		}
		raw := slices.Clone(u)
		want := slices.Clone(u)
		slices.Sort(want)
		if !DispatchLocal(u, codec.Uint64{}, cmp.Compare[uint64]) || !slices.Equal(u, want) {
			t.Fatalf("uint64 n=%d: mismatch", n)
		}
		s := make([]int64, n)
		for j, v := range raw {
			s[j] = int64(v)
		}
		swant := slices.Clone(s)
		slices.Sort(swant)
		if !DispatchLocal(s, codec.Int64{}, cmp.Compare[int64]) || !slices.Equal(s, swant) {
			t.Fatalf("int64 n=%d: mismatch", n)
		}
	}
}

func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// sameBits compares floats by bit pattern, so −0 ≠ +0 and NaN = NaN.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// bitsMultiset returns data's bit patterns in sorted order, so two
// slices hold the same multiset exactly when their results are equal.
func bitsMultiset(data []float64) []uint64 {
	out := make([]uint64, len(data))
	for i, v := range data {
		out[i] = math.Float64bits(v)
	}
	slices.Sort(out)
	return out
}

// TestDispatchLocalSignedZeros: cmpF ties −0 and +0, which the key
// orders; the output must still be sorted and the same multiset.
func TestDispatchLocalSignedZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(5))
	data := make([]float64, 1000)
	for i := range data {
		switch rng.Intn(3) {
		case 0:
			data[i] = negZero
		case 1:
			data[i] = 0
		default:
			data[i] = rng.NormFloat64()
		}
	}
	before := bitsMultiset(data)
	if !DispatchLocal(data, codec.Float64{}, cmpF) {
		t.Fatal("dispatch refused a comparator that agrees up to ties")
	}
	if !slices.IsSortedFunc(data, cmpF) {
		t.Fatal("output not sorted under cmpF")
	}
	if !slices.Equal(bitsMultiset(data), before) {
		t.Fatal("multiset changed")
	}
}

// TestDispatchLocalNaN: cmp.Compare orders NaN first, the key orders a
// positive NaN last. The dispatch either matches slices.Sort or
// declines with the multiset intact.
func TestDispatchLocalNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{2, 65, 4097} {
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64()
			if rng.Intn(10) == 0 {
				data[i] = math.NaN()
			}
		}
		data[0] = math.NaN()
		want := slices.Clone(data)
		slices.Sort(want)
		before := bitsMultiset(data)
		if DispatchLocal(data, codec.Float64{}, cmp.Compare[float64]) {
			if !slices.EqualFunc(data, want, sameBits) {
				t.Fatalf("n=%d: dispatch accepted an order that differs from slices.Sort", n)
			}
			continue
		}
		if !slices.Equal(bitsMultiset(data), before) {
			t.Fatalf("n=%d: declined dispatch lost records", n)
		}
	}
}

// TestDispatchLocalSelfKeyedAllocs: the self-keyed kernel sorts in
// place, with no scratch buffer.
func TestDispatchLocalSelfKeyedAllocs(t *testing.T) {
	src := workload.ZipfKeys(1, 1<<14, 1.4, workload.DefaultZipfUniverse)
	data := make([]float64, len(src))
	allocs := testing.AllocsPerRun(5, func() {
		copy(data, src)
		DispatchLocal(data, codec.Float64{}, cmpF)
	})
	if allocs != 0 {
		t.Fatalf("DispatchLocal(float64) allocated %.0f times per call", allocs)
	}
}

// FuzzDispatchFloat64 checks the float64 kernel against slices.Sort on
// raw bit patterns, NaN payloads and signed zeros included.
func FuzzDispatchFloat64(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1))))
	seed := make([]byte, 0, 8*100)
	for i := 0; i < 100; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(i%7)<<52|uint64(i)<<60)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		data := make([]float64, len(raw)/8)
		ambiguous := false // NaN or −0: slices.Sort's order among ties is unspecified
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			ambiguous = ambiguous || math.IsNaN(data[i]) || math.Signbit(data[i]) && data[i] == 0
		}
		// Under the key's own total order the kernel must always
		// succeed, with the unique sorted result.
		byKey := func(a, b float64) int {
			return cmp.Compare(codec.Float64{}.Uint64Key(a), codec.Float64{}.Uint64Key(b))
		}
		keyed := slices.Clone(data)
		want := slices.Clone(data)
		slices.SortFunc(want, byKey)
		if !DispatchLocal(keyed, codec.Float64{}, byKey) || !slices.EqualFunc(keyed, want, sameBits) {
			t.Fatal("kernel differs from slices.SortFunc under its own key order")
		}
		// Under cmp.Compare it matches slices.Sort byte for byte. Where
		// slices.Sort may order ties either way (NaN, −0), it stays
		// sorted or declines, with the multiset intact.
		want = slices.Clone(data)
		slices.Sort(want)
		got := slices.Clone(data)
		ok := DispatchLocal(got, codec.Float64{}, cmp.Compare[float64])
		if !slices.Equal(bitsMultiset(got), bitsMultiset(data)) {
			t.Fatal("multiset changed")
		}
		switch {
		case ok && !slices.IsSortedFunc(got, cmp.Compare[float64]):
			t.Fatal("accepted an unsorted result")
		case !ok && !ambiguous:
			t.Fatal("declined on input without NaN or −0")
		case !ambiguous && !slices.EqualFunc(got, want, sameBits):
			t.Fatal("result differs from slices.Sort")
		}
	})
}
