package core

import (
	"sdssort/internal/codec"
	"sdssort/internal/psort"
	"sdssort/internal/radix"
)

// The local-ordering fast lane: LSD-radix sorting for codecs with
// integer sort keys. It is a pure acceleration — output bytes and
// record order are identical to the comparison sorts, which remain the
// fallback for every codec that does not qualify.

// localSortFast is the radix dispatch for the initial local sort
// (Fig. 1 line 2): integer-keyed codecs skip the comparison sort for
// the LSD byte pass. Partially ordered inputs keep the natural-run
// merge (the paper's §2.2 adaptivity beats any full re-sort there),
// and stable sorts never dispatch — the radix pass is stable only with
// respect to the full key, which a coarser user comparator may not be.
// Reports whether it sorted data; on false the caller runs the
// comparison sort.
func localSortFast[T any](data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) bool {
	if opt.Stable || opt.DisableRadixDispatch {
		return false
	}
	if opt.RunThreshold > 0 && psort.Sortedness(data, cmp) >= opt.RunThreshold {
		return false
	}
	return radix.DispatchLocal(data, cd, cmp)
}

// reorderFast is the radix dispatch for the re-sort flavour of local
// ordering (p >= τs): the concatenated received chunks are radix-sorted
// when the codec is integer-keyed and the sort is not stable.
func reorderFast[T any](data []T, cd codec.Codec[T], cmp func(a, b T) int, opt Options) bool {
	if opt.Stable || opt.DisableRadixDispatch {
		return false
	}
	return radix.DispatchLocal(data, cd, cmp)
}
