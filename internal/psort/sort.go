// Package psort is the shared-memory sorting substrate of SDS-Sort: the
// sequential sorts that run on one core (the paper uses C++ std::sort
// and std::stable_sort), detection and exploitation of partially ordered
// data, stable k-way merging, and the skew-aware parallel merge that
// makes SdssLocalSort "a shared-memory SDS-Sort without the network".
//
// Everything is generic over a three-way comparator; nothing below the
// comparator inspects records, preserving the paper's property that any
// user-chosen key works without secondary sorting keys.
package psort

import "slices"

// insertionThreshold is the subarray size below which the merge sort
// switches to insertion sort.
const insertionThreshold = 16

// Sort orders data in place with an unstable comparison sort — the
// analogue of the paper's std::sort: slices.SortFunc's
// pattern-defeating quicksort.
func Sort[T any](data []T, cmp func(a, b T) int) {
	slices.SortFunc(data, cmp)
}

// StableSort orders data in place preserving the relative order of equal
// elements (top-down merge sort with one scratch buffer). It is the
// analogue of the paper's std::stable_sort.
func StableSort[T any](data []T, cmp func(a, b T) int) {
	if len(data) < 2 {
		return
	}
	scratch := make([]T, len(data))
	mergeSort(data, scratch, cmp)
}

// StableSortBuf is StableSort reusing a caller-provided scratch buffer
// of at least len(data) elements.
func StableSortBuf[T any](data, scratch []T, cmp func(a, b T) int) {
	if len(data) < 2 {
		return
	}
	if len(scratch) < len(data) {
		scratch = make([]T, len(data))
	}
	mergeSort(data, scratch[:len(data)], cmp)
}

func mergeSort[T any](data, scratch []T, cmp func(a, b T) int) {
	n := len(data)
	if n <= insertionThreshold {
		insertionSort(data, cmp)
		return
	}
	mid := n / 2
	mergeSort(data[:mid], scratch[:mid], cmp)
	mergeSort(data[mid:], scratch[mid:], cmp)
	if cmp(data[mid-1], data[mid]) <= 0 {
		return // already in order
	}
	copy(scratch, data)
	mergeInto(data, scratch[:mid], scratch[mid:], cmp)
}

// insertionSort is the merge sort's leaf. It is stable: it only swaps
// strictly out-of-order neighbours.
func insertionSort[T any](data []T, cmp func(a, b T) int) {
	for i := 1; i < len(data); i++ {
		for j := i; j > 0 && cmp(data[j], data[j-1]) < 0; j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

// mergeInto merges sorted a and b into dst (len(dst) == len(a)+len(b)),
// taking from a on ties — the stability rule. The kernel is branchless:
// the comparison outcome selects the source element and advances the
// indices through conditional moves instead of an unpredictable branch,
// so merging random keys is bound by memory and the comparator, not by
// branch mispredictions. (The b-before-a tie check is what makes
// take-a-on-ties fall out of `cmp(b, a) < 0`.)
func mergeInto[T any](dst, a, b []T, cmp func(x, y T) int) {
	i, j := 0, 0
	for k := 0; i < len(a) && j < len(b); k++ {
		av, bv := a[i], b[j]
		takeB := cmp(bv, av) < 0
		v := av
		if takeB {
			v = bv
		}
		dst[k] = v
		t := 0
		if takeB {
			t = 1
		}
		j += t
		i += 1 - t
	}
	k := i + j
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// MergeTwo returns the stable merge of two sorted slices, preferring a
// on ties.
func MergeTwo[T any](a, b []T, cmp func(x, y T) int) []T {
	dst := make([]T, len(a)+len(b))
	mergeInto(dst, a, b, cmp)
	return dst
}

// IsSorted reports whether data is non-decreasing under cmp.
func IsSorted[T any](data []T, cmp func(a, b T) int) bool {
	for i := 1; i < len(data); i++ {
		if cmp(data[i-1], data[i]) > 0 {
			return false
		}
	}
	return true
}
