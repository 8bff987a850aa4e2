package experiments

import (
	"fmt"
	"time"

	"sdssort/internal/metrics"
	"sdssort/internal/psort"
	"sdssort/internal/workload"
)

// Table1 reproduces Table 1: time of the sequential sort versus the
// sequential stable sort (the paper's std::sort / std::stable_sort, our
// pdqsort / merge sort) on 1GB of uniform keys and on Zipf keys with
// α ∈ {0.7, 1.4, 2.1}. The paper's observations to reproduce: stable is
// slower than unstable, and more-duplicated data sorts faster.
func Table1(cfg Config) (*Result, error) {
	n := 1 << 22 // 32MB of float64 — the paper's 1GB scaled down
	if cfg.Quick {
		n = 1 << 18
	}
	type column struct {
		name  string
		alpha float64 // 0 = uniform
	}
	cols := []column{
		{"Uniform", 0},
		{"Zipf 0.7 (δ≈2%)", 0.7},
		{"Zipf 1.4 (δ≈32%)", 1.4},
		{"Zipf 2.1 (δ≈63%)", 2.1},
	}
	tbl := &metrics.Table{
		Title:   fmt.Sprintf("Table 1 — sequential sort vs stable sort, %d keys", n),
		Headers: []string{"workload", "Sort (unstable)", "StableSort", "stable/unstable"},
	}
	res := &Result{ID: "tab1", Title: About("tab1"), Tables: []*metrics.Table{tbl}}
	for _, col := range cols {
		var base []float64
		if col.alpha == 0 {
			base = workload.Uniform(cfg.Seed, n)
		} else {
			base = workload.ZipfKeys(cfg.Seed, n, col.alpha, workload.DefaultZipfUniverse)
		}
		cp := make([]float64, n)
		fast := median3(func() time.Duration {
			copy(cp, base)
			start := time.Now()
			psort.Sort(cp, cmpF64)
			return time.Since(start)
		})
		stable := median3(func() time.Duration {
			copy(cp, base)
			start := time.Now()
			psort.StableSort(cp, cmpF64)
			return time.Since(start)
		})
		tbl.AddRow(col.name, metrics.FmtDur(fast), metrics.FmtDur(stable),
			fmt.Sprintf("%.2fx", float64(stable)/float64(fast)))
	}
	res.Notes = append(res.Notes,
		"paper (1GB, Edison core): uniform 26.1s/35.2s, Zipf2.1 6.6s/12.5s — stable slower, heavier duplication faster; both relations should hold above")
	return res, nil
}

// Table2 reproduces Table 2: the mapping from the Zipf exponent α to the
// maximum replication ratio δ. The paper lists α 0.4→0.9 giving δ 0.2%
// →6.4%; with the calibrated universe our analytic δ matches closely,
// and we also report the empirical δ of a finite sample.
func Table2(cfg Config) (*Result, error) {
	sample := 200000
	if cfg.Quick {
		sample = 20000
	}
	paper := map[float64]float64{0.4: 0.2, 0.5: 0.5, 0.6: 1.0, 0.7: 2.0, 0.8: 3.7, 0.9: 6.4}
	tbl := &metrics.Table{
		Title:   fmt.Sprintf("Table 2 — Zipf α vs δ (universe %d)", workload.DefaultZipfUniverse),
		Headers: []string{"α", "δ analytic (%)", "δ sampled (%)", "δ paper (%)"},
	}
	res := &Result{ID: "tab2", Title: About("tab2"), Tables: []*metrics.Table{tbl}}
	for _, alpha := range []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		z := workload.NewZipf(alpha, workload.DefaultZipfUniverse)
		keys := workload.ZipfKeys(cfg.Seed, sample, alpha, workload.DefaultZipfUniverse)
		tbl.AddRow(
			fmt.Sprintf("%.1f", alpha),
			fmt.Sprintf("%.2f", z.MaxProbability()*100),
			fmt.Sprintf("%.2f", workload.DupRatio(keys)*100),
			fmt.Sprintf("%.1f", paper[alpha]),
		)
	}
	return res, nil
}
