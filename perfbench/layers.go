package main

import (
	"bufio"
	"encoding/json"
	"os"

	"sdssort/internal/trace"
)

// spanSet is the traced world's spans, indexed by iteration and name.
type spanSet struct {
	p     int
	iters int                                   // resident or spill iterations recorded
	by    map[int]map[string][]trace.SpanRecord // iter -> name -> spans, any rank
}

// readSpans loads the per-rank span event files the traced ranks wrote.
func readSpans(paths []string) (spanSet, error) {
	var events []trace.Event
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return spanSet{}, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var ev trace.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				f.Close()
				return spanSet{}, err
			}
			events = append(events, ev)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return spanSet{}, err
		}
	}
	return newSpanSet(len(paths), events), nil
}

// newSpanSet pairs a p-rank world's span events and indexes them.
func newSpanSet(p int, events []trace.Event) spanSet {
	s := spanSet{p: p, by: map[int]map[string][]trace.SpanRecord{}}
	for _, sp := range trace.BuildSpans(events) {
		it := int(num(sp.Detail, "iter"))
		if s.by[it] == nil {
			s.by[it] = map[string][]trace.SpanRecord{}
		}
		s.by[it][sp.Name] = append(s.by[it][sp.Name], sp)
		s.iters = max(s.iters, it+1)
	}
	return s
}

// num reads a numeric span detail (JSON numbers decode as float64).
func num(detail map[string]any, key string) float64 {
	v, _ := detail[key].(float64)
	return v
}

// perRank sums f over each rank's spans of one name in one iteration.
func (s spanSet) perRank(iter int, name string, f func(trace.SpanRecord) float64) []float64 {
	out := make([]float64, s.p)
	for _, sp := range s.by[iter][name] {
		if sp.Rank >= 0 && sp.Rank < s.p {
			out[sp.Rank] += f(sp)
		}
	}
	return out
}

func seconds(sp trace.SpanRecord) float64 { return float64(sp.DurUS()) / 1e6 }

// maxSeconds is the slowest rank's total time in the named spans of one
// iteration: the slowest rank sets the pace.
func (s spanSet) maxSeconds(iter int, name string) float64 {
	return maxOf(s.perRank(iter, name, seconds))
}

// total sums a span detail over all ranks' spans of one iteration.
func (s spanSet) total(iter int, name, key string) float64 {
	var t float64
	for _, v := range s.perRank(iter, name, func(sp trace.SpanRecord) float64 { return num(sp.Detail, key) }) {
		t += v
	}
	return t
}

// busyWait splits a collective's time on each rank into waiting — from
// the rank's entry until the last rank entered, read off the span
// start times on the shared host clock — and busy, the rest; it
// returns the largest of each over the ranks. A non-collective span
// waits for nobody.
func (s spanSet) busyWait(iter int, name string) (busy, wait float64) {
	spans := s.by[iter][name]
	var last int64
	for _, sp := range spans {
		last = max(last, sp.StartUnixUS)
	}
	for _, sp := range spans {
		w := int64(0)
		if sp.Detail["collective"] == true {
			w = min(last-sp.StartUnixUS, sp.DurUS())
		}
		busy = max(busy, float64(sp.DurUS()-w)/1e6)
		wait = max(wait, float64(w)/1e6)
	}
	return busy, wait
}

// overIters is the median over the recorded iterations of f.
func (s spanSet) overIters(f func(iter int) float64) float64 {
	vals := make([]float64, s.iters)
	for it := range vals {
		vals[it] = f(it)
	}
	return median(vals)
}

// layerNames are the spans whose sum, per rank, covers one composed
// sort: the calls core.Sort makes (resident workloads) or the streaming
// spill path (spill workload).
var layerNames = []string{
	"psort.localsort", "pivots", "partition", "core.exchange", "checkpoint.save",
	"core.spill_sort", "extsort.stream",
}

// layerMetrics reduces the traced world's spans to the per-layer
// metrics. Times are the slowest rank's, as the median over iterations;
// counts are summed over ranks and identical in every iteration.
func layerMetrics(s spanSet) map[string]metric {
	m := map[string]metric{}
	sec := func(name, span string) {
		m[name] = metric{s.overIters(func(it int) float64 { return s.maxSeconds(it, span) }), "s"}
	}
	count := func(name, span, key, unit string) {
		m[name] = metric{s.total(0, span, key), unit}
	}
	collective := func(prefix, span, busy, wait string) {
		m[prefix+busy] = metric{s.overIters(func(it int) float64 { b, _ := s.busyWait(it, span); return b }), "s"}
		m[prefix+wait] = metric{s.overIters(func(it int) float64 { _, w := s.busyWait(it, span); return w }), "s"}
	}

	m["comm.bootstrap_s"] = metric{s.maxSeconds(-1, "comm.bootstrap"), "s"}
	m["comm.clocksync_s"] = metric{s.maxSeconds(-1, "comm.clocksync"), "s"}
	sec("recordio.read_s", "recordio.read")
	sec("recordio.write_s", "recordio.write")
	sec("psort.localsort_s", "psort.localsort")
	count("radix.records", "psort.localsort", "radix_records", "count")
	collective("pivots.", "pivots", "busy_s", "wait_s")
	m["pivots.dup_runs"] = metric{maxOf(s.perRank(0, "pivots", func(sp trace.SpanRecord) float64 { return num(sp.Detail, "dup_runs") })), "count"}
	collective("partition.", "partition", "busy_s", "wait_s")
	sec("core.exchange_s", "core.exchange")
	m["core.exchange_wait_s"] = metric{s.overIters(func(it int) float64 { _, w := s.busyWait(it, "core.exchange"); return w }), "s"}
	sec("comm.wire_s", "comm.wire")
	count("comm.bytes", "comm.wire", "bytes", "bytes")
	m["comm.wire_gbs"] = metric{s.overIters(func(it int) float64 {
		return safeDiv(s.total(it, "comm.wire", "bytes")/1e9, s.maxSeconds(it, "comm.wire"))
	}), "GB/s"}
	sec("psort.localorder_s", "psort.localorder")
	sec("checkpoint.save_s", "checkpoint.save")
	count("checkpoint.bytes", "checkpoint.save", "bytes", "bytes")
	sec("core.spill_sort_s", "core.spill_sort")
	sec("extsort.stream_s", "extsort.stream")
	count("extsort.runs", "extsort.stream", "runs", "count")
	count("extsort.bytes", "extsort.stream", "bytes", "bytes")
	count("extsort.merge_passes", "extsort.stream", "merge_passes", "count")
	m["memlimit.peak_mb"] = metric{s.overIters(func(it int) float64 {
		return maxOf(s.perRank(it, "extsort.stream", func(sp trace.SpanRecord) float64 { return num(sp.Detail, "mem_peak") })) / (1 << 20)
	}), "MiB"}

	// Speed-of-light references measured by the ranks.
	refSort := s.maxSeconds(-1, "ref.sort")
	var refSum float64
	for _, v := range s.perRank(-1, "ref.sort", seconds) {
		refSum += v
	}
	m["ref.sort_mrec_s"] = metric{safeDiv(s.total(-1, "ref.sort", "records")/1e6, refSum), "Mrec/s"}
	m["psort.localsort_sol"] = metric{safeDiv(refSort, m["psort.localsort_s"].Value), "ratio"}
	var loop float64
	for _, sp := range s.by[-1]["ref.loopback"] {
		rep := num(sp.Detail, "rep")
		var bytes, slowest float64
		for _, o := range s.by[-1]["ref.loopback"] {
			if num(o.Detail, "rep") == rep {
				bytes += num(o.Detail, "bytes")
				slowest = max(slowest, seconds(o))
			}
		}
		loop = max(loop, safeDiv(bytes/1e9, slowest))
	}
	m["ref.loopback_gbs"] = metric{loop, "GB/s"}
	m["comm.wire_sol"] = metric{safeDiv(m["comm.wire_gbs"].Value, loop), "ratio"}

	// Coverage: the slowest rank's summed layer times over the slowest
	// rank's composed sort.
	m["coverage"] = metric{s.overIters(func(it int) float64 {
		sum := make([]float64, s.p)
		for _, name := range layerNames {
			for r, v := range s.perRank(it, name, seconds) {
				sum[r] += v
			}
		}
		return safeDiv(maxOf(sum), s.maxSeconds(it, "composed"))
	}), "ratio"}
	return m
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
