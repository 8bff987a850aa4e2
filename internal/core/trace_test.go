package core

import (
	"testing"

	"sdssort/internal/cluster"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/trace"
)

// TestSortEmitsTrace checks the observable event stream of one sort:
// start/done per rank, the duplicated-pivot report on skewed data, and
// the exchange plan with plausible volumes.
func TestSortEmitsTrace(t *testing.T) {
	topo := cluster.Topology{Nodes: 4, CoresPerNode: 1}
	rec := trace.NewRecorder()
	in := makeTagged(topo.Size(), 400, func(rank, i int) float64 {
		return float64(i % 2) // heavy duplication forces pivot runs
	})
	opt := DefaultOptions()
	opt.TauM = 0
	opt.Trace = rec
	out := runSort(t, topo, in, opt)
	checkSorted(t, in, out, false)

	if got := len(rec.ByKind("sort.start")); got != topo.Size() {
		t.Fatalf("%d sort.start events, want %d", got, topo.Size())
	}
	if got := len(rec.ByKind("sort.done")); got != topo.Size() {
		t.Fatalf("%d sort.done events, want %d", got, topo.Size())
	}
	if len(rec.ByKind("pivots.duplicated")) == 0 {
		t.Fatal("no duplicated-pivot events on 2-value data")
	}
	plans := rec.ByKind("exchange.plan")
	if len(plans) != topo.Size() {
		t.Fatalf("%d exchange plans", len(plans))
	}
	var totalRecv int64
	for _, e := range plans {
		// The in-memory recorder keeps native types (the JSONL sink
		// would render them as JSON numbers).
		totalRecv += e.Detail["recv_records"].(int64)
	}
	if int(totalRecv) != topo.Size()*400 {
		t.Fatalf("exchange plans account for %v records, want %d", totalRecv, topo.Size()*400)
	}
}

// TestSortTraceNodeMerge checks leader/follower events on the τm path.
func TestSortTraceNodeMerge(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 3}
	rec := trace.NewRecorder()
	in := makeTagged(topo.Size(), 200, uniformGen(60))
	opt := DefaultOptions()
	opt.TauM = 1 << 40
	opt.Trace = rec
	err := cluster.Run(topo, func(c *comm.Comm) error {
		local := append([]codec.Tagged(nil), in[c.Rank()]...)
		_, err := Sort(c, local, taggedCodec, codec.CompareTagged, opt)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec.ByKind("nodemerge.follower")); got != 4 {
		t.Fatalf("%d followers, want 4", got)
	}
	if got := len(rec.ByKind("nodemerge.leader")); got != 2 {
		t.Fatalf("%d leaders, want 2", got)
	}
}

// TestOverlapMergesOncePerSource: the overlapped exchange drains every
// chunk of a source into its slab region and merges the source into
// the running result once, when its last chunk lands. At StageBytes=16
// every record is its own chunk, so a per-chunk merge would show up as
// far more merges than non-empty remote sources. Rank 0's keys all
// fall below the first pivot, so some destinations have an empty
// remote source as well.
func TestOverlapMergesOncePerSource(t *testing.T) {
	topo := cluster.Topology{Nodes: 2, CoresPerNode: 2}
	p := topo.Size()
	uniform := uniformGen(81)
	in := makeTagged(p, 300, func(rank, i int) float64 {
		if rank == 0 {
			return -float64(i)
		}
		return uniform(rank, i)
	})
	rec := trace.NewRecorder()
	opt := DefaultOptions()
	opt.TauO = 1 << 20
	opt.TauM = 0
	opt.StageBytes = 16
	opt.Trace = rec
	out := runSort(t, topo, in, opt)
	checkSorted(t, in, out, false)

	// sent[src][dst] from each rank's partition histogram.
	sent := make([][]int64, p)
	for _, e := range rec.ByKind("partition.histogram") {
		sent[e.Rank] = e.Detail["sent"].([]int64)
	}
	spans := 0
	emptySources := 0
	for _, sp := range trace.BuildSpans(rec.Events()) {
		if sp.Name != "exchange" {
			continue
		}
		spans++
		want := 0
		for src := 0; src < p; src++ {
			if src == sp.Rank {
				continue
			}
			if sent[src][sp.Rank] > 0 {
				want++
			} else {
				emptySources++
			}
		}
		if got := sp.Detail["merges"]; got != want {
			t.Errorf("rank %d: %v merges, want one per non-empty remote source (%d)", sp.Rank, got, want)
		}
	}
	if spans != p {
		t.Fatalf("%d exchange spans, want %d", spans, p)
	}
	if emptySources == 0 {
		t.Fatal("test premise broken: every remote source sent records")
	}
}
