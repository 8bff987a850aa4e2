// Package radix implements a parallel radix sort for records with
// unsigned-integer sort keys — one of the non-sampling related-work
// algorithms the paper positions against (§5). Distribution: a global
// histogram over the top bits assigns contiguous bucket ranges to ranks
// so the loads balance (for value distributions that spread across the
// bucket space); each rank then LSD-radix-sorts its received range.
// Like all radix sorts it needs an integer key extraction and cannot
// sort by arbitrary comparators — exactly the flexibility gap SDS-Sort
// fills.
package radix

import (
	"fmt"
	"math/bits"
	"unsafe"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/metrics"
	"sdssort/internal/psort"
)

// topBits is the width of the distribution histogram. Floating-point
// keys concentrate in few exponent values, so the histogram needs to see
// mantissa bits beyond sign+exponent (12 bits) to split the [0.5, 1)
// mass across ranks; 14 bits gives 2 mantissa bits while keeping the
// all-gathered histogram at 128KB per rank.
const topBits = 14

const numBuckets = 1 << topBits

// Options configures the parallel radix sort.
type Options struct {
	// Timer accrues per-phase time when non-nil.
	Timer *metrics.PhaseTimer
}

func (o Options) timer() *metrics.PhaseTimer {
	if o.Timer != nil {
		return o.Timer
	}
	return metrics.NewPhaseTimer()
}

// Sort sorts records distributed across the communicator by the uint64
// key extracted by key(). Rank order of the output blocks follows key
// order. The sort is stable with respect to the key (LSD radix).
func Sort[T any](c *comm.Comm, data []T, cd codec.Codec[T], key func(T) uint64, opt Options) ([]T, error) {
	tm := opt.timer()
	tm.Start(metrics.PhaseOther)
	defer tm.Stop()
	p := c.Size()
	if p == 1 {
		LSDSort(data, key)
		return data, nil
	}

	// Global histogram over the top bits.
	tm.Start(metrics.PhasePivotSelection)
	local := make([]int64, numBuckets)
	for _, rec := range data {
		local[key(rec)>>(64-topBits)]++
	}
	parts, err := c.Allgather(comm.EncodeInt64s(local))
	if err != nil {
		return nil, fmt.Errorf("radix: histogram gather: %w", err)
	}
	global := make([]int64, numBuckets)
	var total int64
	for r, buf := range parts {
		vals, err := comm.DecodeInt64s(buf)
		if err != nil || len(vals) != numBuckets {
			return nil, fmt.Errorf("radix: bad histogram from rank %d", r)
		}
		for i, v := range vals {
			global[i] += v
			total += v
		}
	}

	// Assign contiguous bucket ranges to ranks, balancing record
	// counts: rank j owns buckets [cut[j], cut[j+1]).
	cut := make([]int, p+1)
	cut[p] = numBuckets
	var running int64
	nextRank := 1
	for b := 0; b < numBuckets && nextRank < p; b++ {
		running += global[b]
		for nextRank < p && running >= int64(nextRank)*total/int64(p) {
			cut[nextRank] = b + 1
			nextRank++
		}
	}
	for j := 1; j < p; j++ {
		if cut[j] < cut[j-1] {
			cut[j] = cut[j-1]
		}
	}

	// Route each record to its bucket range's owner.
	tm.Start(metrics.PhaseExchange)
	owner := make([]int, numBuckets)
	for j := 0; j < p; j++ {
		for b := cut[j]; b < cut[j+1]; b++ {
			owner[b] = j
		}
	}
	outParts := make([][]T, p)
	for _, rec := range data {
		dst := owner[key(rec)>>(64-topBits)]
		outParts[dst] = append(outParts[dst], rec)
	}
	sendParts := make([][]byte, p)
	for dst := 0; dst < p; dst++ {
		// Zero-copy-capable codecs scatter straight from the bucket
		// slab; the buckets are not touched again until the exchange
		// returns, so aliasing the storage is safe.
		if wire, ok := codec.View(cd, outParts[dst]); ok {
			sendParts[dst] = wire
			continue
		}
		sendParts[dst] = codec.EncodeSlice(cd, nil, outParts[dst])
	}
	recv, err := c.Alltoall(sendParts)
	if err != nil {
		return nil, fmt.Errorf("radix: exchange: %w", err)
	}

	tm.Start(metrics.PhaseLocalOrdering)
	var mine []T
	for src := 0; src < p; src++ {
		mine, err = codec.DecodeAppend(cd, mine, recv[src])
		if err != nil {
			return nil, fmt.Errorf("radix: decode from rank %d: %w", src, err)
		}
	}
	LSDSort(mine, key)
	return mine, nil
}

// DispatchLocal sorts data in place by radix when cd has an integer
// sort key (codec.Uint64Keyer) and the result agrees with cmp,
// reporting whether it did. Records that are their own key (float64,
// int64, uint64) take the in-place MSD kernel, other keyed codecs
// LSDSort. On disagreement (the O(n) IsSorted sweep) the caller falls
// back to its comparison sort; data is left permuted but intact. The
// MSD kernel is not key-stable, which is safe only because for these
// records equal keys mean identical bytes; neither kernel sees a
// coarser comparator's ties, so core dispatches only non-stable sorts.
func DispatchLocal[T any](data []T, cd codec.Codec[T], cmp func(a, b T) int) bool {
	if !sortSelfKeyed(data, cd) {
		key, ok := codec.Uint64KeyOf(cd)
		if !ok {
			return false
		}
		LSDSort(data, key)
	}
	return psort.IsSorted(data, cmp)
}

// sortSelfKeyed sorts records that are their own radix key, allocating
// nothing: it views them as uint64 bits, maps them to keys in place
// (the codecs' Uint64Key restated on raw bits: key = bits ^ flip, with
// the low bits inverted too when the sign bit is set), sorts the keys
// with msdSort and maps them back. It reports false for other codecs.
func sortSelfKeyed[T any](data []T, cd codec.Codec[T]) bool {
	var flip, low uint64
	switch any(cd).(type) {
	case codec.Float64:
		flip, low = 1<<63, 1<<63-1
	case codec.Int64:
		flip = 1 << 63
	case codec.Uint64:
	default:
		return false
	}
	keys := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(data))), len(data))
	for i, b := range keys {
		keys[i] = b ^ flip ^ uint64(int64(b)>>63)&low
	}
	msdSort(keys)
	for i, k := range keys {
		b := k ^ flip
		keys[i] = b ^ uint64(int64(b)>>63)&low
	}
	return true
}

// msdSort sorts keys in place: most-significant-byte-first radix sort
// with American-flag swaps (no scratch buffer), insertion sort below 64
// keys. Each bucket starts at its first differing byte, found from
// the OR and AND of its keys, so a shared prefix costs no passes and a
// bucket of equal keys (Zipf's hot key) stops after one read.
func msdSort(keys []uint64) {
	if len(keys) < 64 {
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		return
	}
	or, and := uint64(0), ^uint64(0)
	for _, k := range keys {
		or |= k
		and &= k
	}
	if or == and {
		return
	}
	shift := uint(bits.Len64(or^and)-1) &^ 7
	var counts, next [256]int
	for _, k := range keys {
		counts[byte(k>>shift)]++
	}
	pos := 0
	for b, c := range counts {
		next[b] = pos
		pos += c
	}
	// American flag: walk each bucket's unfilled region, swapping every
	// key into the next free slot of its own bucket until one belongs.
	end := 0
	for b, c := range counts {
		end += c
		for next[b] < end {
			k := keys[next[b]]
			for d := byte(k >> shift); int(d) != b; d = byte(k >> shift) {
				keys[next[d]], k = k, keys[next[d]]
				next[d]++
			}
			keys[next[b]] = k
			next[b]++
		}
	}
	if shift == 0 {
		return
	}
	start := 0
	for _, c := range counts {
		if c > 1 {
			msdSort(keys[start : start+c])
		}
		start += c
	}
}

// LSDSort sorts data in place by 8 passes of byte-wise counting sort
// over the uint64 key, least significant byte first.
func LSDSort[T any](data []T, key func(T) uint64) {
	n := len(data)
	if n < 2 {
		return
	}
	buf := make([]T, n)
	src, dst := data, buf
	for pass := 0; pass < 8; pass++ {
		shift := uint(8 * pass)
		var counts [256]int
		for _, rec := range src {
			counts[(key(rec)>>shift)&0xff]++
		}
		if counts[int((key(src[0])>>shift)&0xff)] == n {
			// All records share this byte; skip the pass.
			continue
		}
		pos := 0
		var starts [256]int
		for b := 0; b < 256; b++ {
			starts[b] = pos
			pos += counts[b]
		}
		for _, rec := range src {
			b := (key(rec) >> shift) & 0xff
			dst[starts[b]] = rec
			starts[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &data[0] {
		copy(data, src)
	}
}
