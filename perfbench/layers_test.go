package main

import (
	"math"
	"testing"

	"sdssort/internal/trace"
)

// spanEvents renders one span as the begin/end event pair a recorder
// would hold, with its times in microseconds on the shared clock.
func spanEvents(rank int, id int64, name string, iter int, startUS, endUS int64, detail map[string]any) []trace.Event {
	begin := map[string]any{"span": float64(id), "name": name, "iter": float64(iter)}
	for k, v := range detail {
		begin[k] = v
	}
	return []trace.Event{
		{Rank: rank, Kind: trace.KindSpanBegin, ElapsedUS: startUS, UnixUS: startUS, Detail: begin},
		{Rank: rank, Kind: trace.KindSpanEnd, ElapsedUS: endUS, UnixUS: endUS, Detail: map[string]any{"span": float64(id), "name": name}},
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestLayerMetricsSplitsCollectivesIntoBusyAndWait(t *testing.T) {
	var ev []trace.Event
	add := func(e []trace.Event) { ev = append(ev, e...) }
	coll := map[string]any{"collective": true}
	// Rank 1 finishes its local sort 150 µs after rank 0, so rank 0
	// waits 150 µs inside the pivot collective.
	add(spanEvents(0, 1, "psort.localsort", 0, 0, 100, nil))
	add(spanEvents(1, 1, "psort.localsort", 0, 0, 250, nil))
	add(spanEvents(0, 2, "pivots", 0, 100, 300, coll))
	add(spanEvents(1, 2, "pivots", 0, 250, 300, coll))
	// A local partition waits for nobody, whatever its start skew.
	add(spanEvents(0, 3, "partition", 0, 300, 310, map[string]any{"collective": false}))
	add(spanEvents(1, 3, "partition", 0, 340, 360, map[string]any{"collective": false}))
	add(spanEvents(0, 4, "checkpoint.save", 0, 400, 500, map[string]any{"bytes": float64(800)}))
	add(spanEvents(0, 5, "checkpoint.save", 0, 500, 600, map[string]any{"bytes": float64(0)}))
	add(spanEvents(1, 4, "checkpoint.save", 0, 400, 450, map[string]any{"bytes": float64(800)}))
	add(spanEvents(0, 6, "composed", 0, 1000, 1600, nil))
	add(spanEvents(1, 6, "composed", 0, 1000, 1500, nil))

	m := layerMetrics(newSpanSet(2, ev))
	for name, want := range map[string]float64{
		"psort.localsort_s": 250e-6,
		"pivots.busy_s":     50e-6,
		"pivots.wait_s":     150e-6,
		"partition.busy_s":  20e-6,
		"partition.wait_s":  0,
		"checkpoint.save_s": 200e-6, // rank 0's two saves
		"checkpoint.bytes":  1600,
		// Rank 0: 100 + 200 + 10 + 200 = 510 µs of a 600 µs composed sort.
		"coverage": 510.0 / 600,
	} {
		if got := m[name].Value; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
