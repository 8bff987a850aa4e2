package main

import "slices"

// median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(xs []float64) float64 { return slices.Min(xs) }
func maxOf(xs []float64) float64 { return slices.Max(xs) }
