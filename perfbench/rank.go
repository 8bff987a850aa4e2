package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"sdssort/internal/algo"
	"sdssort/internal/checkpoint"
	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/comm/tcpcomm"
	"sdssort/internal/core"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/partition"
	"sdssort/internal/pivots"
	"sdssort/internal/psort"
	"sdssort/internal/radix"
	"sdssort/internal/recordio"
	"sdssort/internal/trace"
)

// Loopback reference: each rank streams loopBytes to the next rank of
// a ring over a raw TCP connection, loopReps times.
const (
	loopBytes = 64 << 20
	loopReps  = 3
)

// rankCtx is one traced rank: its communicator, its span recorder and
// the run it is part of.
type rankCtx struct {
	rank int
	c    *comm.Comm
	rec  *trace.Recorder
	wl   workload
	in   string // the workload's input file
	dir  string // the run's scratch directory
	iter int    // current iteration; -1 for once-per-world spans
}

var f64 = codec.Float64{}

func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// span opens a span tagged with the current iteration.
func (rc *rankCtx) span(name string, detail map[string]any) *trace.Span {
	d := map[string]any{"iter": rc.iter}
	for k, v := range detail {
		d[k] = v
	}
	return trace.StartSpan(rc.rec, rc.rank, trace.Scope{Trace: "perfbench"}, name, d)
}

// rankMain is one rank of the traced world: it forms the TCP world,
// measures the references, then repeats the layer-by-layer sort for the
// given number of seconds, and writes its spans out at the end.
func rankMain(args []string) int {
	fs := flag.NewFlagSet("perfbench rank", flag.ContinueOnError)
	var (
		rank     = fs.Int("rank", -1, "this process's rank")
		size     = fs.Int("size", 0, "ranks in the world")
		registry = fs.String("registry", "", "bootstrap registry address")
		wlName   = fs.String("workload", "", "workload")
		in       = fs.String("in", "", "input file")
		dir      = fs.String("dir", "", "the run's scratch directory")
		seconds  = fs.Float64("seconds", 1, "how long to repeat the traced sort")
		spans    = fs.String("spans", "", "write the recorded span events here")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := lookupWorkload(*wlName)
	if !ok || *rank < 0 || *size <= *rank || *registry == "" || *in == "" || *dir == "" || *spans == "" {
		fmt.Fprintln(os.Stderr, "perfbench rank: bad arguments")
		return 2
	}
	rc := &rankCtx{rank: *rank, rec: trace.NewRecorder(), wl: wl, in: *in, dir: *dir, iter: -1}
	err := rc.run(*size, *registry, time.Duration(*seconds*float64(time.Second)))
	if werr := writeEvents(*spans, rc.rec.Events()); err == nil {
		err = werr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench rank %d: %v\n", *rank, err)
		return 1
	}
	return 0
}

func (rc *rankCtx) run(size int, registry string, budget time.Duration) error {
	sp := rc.span("comm.bootstrap", nil)
	tcp, err := tcpcomm.New(tcpcomm.Config{
		Rank: rc.rank, Size: size, Node: rc.rank,
		Registry: registry, Listen: "127.0.0.1:0", Timeout: 30 * time.Second,
	})
	if err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	defer tcp.Close()
	rc.c = comm.NewNamed(tcp, "world")
	sp.End(nil)

	sp = rc.span("comm.clocksync", nil)
	if _, err := rc.c.SyncClocks(0); err != nil {
		return fmt.Errorf("clock sync: %w", err)
	}
	sp.End(nil)

	if err := rc.refSort(); err != nil {
		return err
	}
	if err := rc.refLoopback(); err != nil {
		return err
	}

	start := time.Now()
	for rc.iter = 0; ; rc.iter++ {
		more := []byte{0}
		if rc.iter == 0 || time.Since(start) < budget {
			more[0] = 1
		}
		got, err := rc.c.Bcast(0, more)
		if err != nil {
			return fmt.Errorf("iteration agreement: %w", err)
		}
		if got[0] == 0 {
			break
		}
		if rc.wl.spill() {
			err = rc.spillIteration()
		} else {
			err = rc.residentIteration()
		}
		if err != nil {
			return fmt.Errorf("iteration %d: %w", rc.iter, err)
		}
	}
	// Leave together, so no rank closes its transport under a peer
	// that is still sending.
	return rc.c.Barrier()
}

// readShard reads this rank's shard of the input, as sdsnode does.
func (rc *rankCtx) readShard() ([]float64, error) {
	return recordio.ReadShard(rc.in, f64, rc.c.Rank(), rc.c.Size())
}

// refSort times a single-core slices.Sort of a copy of this rank's
// shard: the local-sort speed-of-light reference.
func (rc *rankCtx) refSort() error {
	data, err := rc.readShard()
	if err != nil {
		return err
	}
	if err := rc.c.Barrier(); err != nil {
		return err
	}
	sp := rc.span("ref.sort", nil)
	slices.Sort(data)
	sp.End(map[string]any{"records": len(data)})
	return nil
}

// refLoopback measures raw loopback TCP bandwidth between the rank
// processes: each rank streams loopBytes to the next rank of a ring
// while receiving as much from the previous one.
func (rc *rankCtx) refLoopback() error {
	c := rc.c
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	addrs, err := c.Allgather([]byte(ln.Addr().String()))
	if err != nil {
		return err
	}
	type accepted struct {
		conn net.Conn
		err  error
	}
	acc := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		acc <- accepted{conn, err}
	}()
	out, err := net.Dial("tcp", string(addrs[(c.Rank()+1)%c.Size()]))
	if err != nil {
		return err
	}
	defer out.Close()
	a := <-acc
	if a.err != nil {
		return a.err
	}
	defer a.conn.Close()

	buf := make([]byte, 1<<20)
	sink := make([]byte, 1<<20)
	for rep := 0; rep < loopReps; rep++ {
		if err := c.Barrier(); err != nil {
			return err
		}
		sp := rc.span("ref.loopback", map[string]any{"rep": rep})
		sent := make(chan error, 1)
		go func() {
			var err error
			for n := 0; n < loopBytes && err == nil; n += len(buf) {
				_, err = out.Write(buf)
			}
			sent <- err
		}()
		var rerr error
		for n := 0; n < loopBytes && rerr == nil; n += len(sink) {
			_, rerr = io.ReadFull(a.conn, sink)
		}
		if err := <-sent; err != nil {
			return fmt.Errorf("loopback send: %w", err)
		}
		if rerr != nil {
			return fmt.Errorf("loopback receive: %w", rerr)
		}
		sp.End(map[string]any{"bytes": loopBytes})
	}
	return nil
}

// residentIteration is one layer-by-layer sort of the resident
// workloads: each public call core.Sort makes, in core.Sort's order and
// under its gates, with a span around each; then the wire and
// local-ordering probes; then the composed sds driver on a fresh copy
// of the shard, for coverage.
func (rc *rankCtx) residentIteration() error {
	c, wl := rc.c, rc.wl
	rank, p := c.Rank(), c.Size()
	opt := core.DefaultOptions()
	opt.Stable = wl.stable
	if err := c.Barrier(); err != nil {
		return err
	}

	sp := rc.span("recordio.read", nil)
	data, err := rc.readShard()
	if err != nil {
		return err
	}
	sp.End(map[string]any{"records": len(data)})
	fresh := slices.Clone(data)

	var store *checkpoint.Store
	if wl.ckpt {
		if store, err = checkpoint.NewStore(rc.scratch("ckpt", "decomposed"), p); err != nil {
			return err
		}
	}

	// Local sort, gated as core.Sort gates it: the radix dispatch only
	// for unstable sorts of data below the natural-run threshold.
	sp = rc.span("psort.localsort", nil)
	radixed := 0
	if !opt.Stable && !(opt.RunThreshold > 0 && psort.Sortedness(data, cmpF) >= opt.RunThreshold) &&
		radix.DispatchLocal(data, f64, cmpF) {
		radixed = len(data)
	} else {
		psort.AdaptiveSort(data, max(opt.Cores, 1), opt.Stable, opt.RunThreshold, cmpF)
	}
	sp.End(map[string]any{"records": len(data), "radix_records": radixed})
	if err := rc.save(store, checkpoint.PhaseLocalSort, nil, data); err != nil {
		return err
	}

	sp = rc.span("pivots", map[string]any{"collective": true})
	pg, err := pivots.SelectGlobal(c, pivots.RegularSample(data, p), f64, cmpF)
	if err != nil {
		return fmt.Errorf("pivot selection: %w", err)
	}
	runs := partition.Runs(pg, cmpF)
	sp.End(map[string]any{"dup_runs": len(runs)})
	if len(pg) != p-1 {
		return fmt.Errorf("selected %d pivots for %d ranks", len(pg), p)
	}

	// The stable partition needs one collective, the all-gather of the
	// per-run duplicate counts; the fast one is local.
	sp = rc.span("partition", map[string]any{"collective": opt.Stable && len(runs) > 0})
	bounds, err := partitionBounds(c, data, pg, runs, opt.Stable)
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	sp.End(nil)
	if store != nil {
		// Without node merging core.Sort aliases the partition snapshot
		// to the local-sort data; only the bounds are new.
		b64 := make([]int64, len(bounds))
		for i, b := range bounds {
			b64[i] = int64(b)
		}
		sp = rc.span("checkpoint.save", map[string]any{"phase": "partition", "bytes": 0})
		m := checkpoint.Manifest{Phase: checkpoint.PhasePartition, Rank: rank, Leader: true, Bounds: b64}
		if err := checkpoint.SaveAlias(store, m, checkpoint.PhaseLocalSort); err != nil {
			return err
		}
		sp.End(nil)
	}

	sp = rc.span("core.exchange", map[string]any{"collective": true})
	out, err := core.ExchangeSorted(c, data, bounds, f64, cmpF, opt)
	if err != nil {
		return fmt.Errorf("exchange: %w", err)
	}
	sp.End(map[string]any{"records": len(out)})
	if err := rc.save(store, checkpoint.PhaseFinal, nil, out); err != nil {
		return err
	}

	sp = rc.span("recordio.write", nil)
	if err := recordio.WriteFile(rc.shardPath("out"), f64, out); err != nil {
		return err
	}
	sp.End(map[string]any{"records": len(out)})
	sum := checksum(out)
	out = nil

	// Probes: the same partitions over the bare all-to-all as byte
	// views, then the k-way merge of what arrived. Their result must
	// equal the exchange's.
	if err := c.Barrier(); err != nil {
		return err
	}
	parts := make([][]byte, p)
	var wire int
	for dst := range parts {
		parts[dst], _ = codec.View(f64, data[bounds[dst]:bounds[dst+1]])
		if dst != rank {
			wire += len(parts[dst])
		}
	}
	sp = rc.span("comm.wire", map[string]any{"collective": true})
	recv, err := c.Alltoall(parts)
	if err != nil {
		return fmt.Errorf("wire all-to-all: %w", err)
	}
	sp.End(map[string]any{"bytes": wire})
	data, parts = nil, nil
	chunks := make([][]float64, p)
	for src, b := range recv {
		if chunks[src], err = codec.DecodeSlice(f64, b); err != nil {
			return err
		}
	}
	recv = nil
	sp = rc.span("psort.localorder", nil)
	merged := psort.KWayMerge(chunks, cmpF)
	sp.End(map[string]any{"records": len(merged)})
	if checksum(merged) != sum {
		return fmt.Errorf("the k-way merge of the wire probe differs from core.ExchangeSorted's output")
	}
	chunks, merged = nil, nil

	// Composed: the registered sds driver on a fresh copy of the shard,
	// with the same options (and its own checkpoint store).
	aopt := algo.DefaultOptions()
	aopt.Core.Stable = wl.stable
	var ck *core.Checkpointing
	if wl.ckpt {
		cstore, err := checkpoint.NewStore(rc.scratch("ckpt", "composed"), p)
		if err != nil {
			return err
		}
		ck = &core.Checkpointing{Store: cstore}
		aopt.Core.Checkpoint = ck
	}
	drv, err := algo.New[float64](algo.NameSDS)
	if err != nil {
		return err
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	sp = rc.span("composed", nil)
	sorted, err := drv.Sort(context.Background(), c, fresh, f64, cmpF, aopt)
	if err == nil {
		err = ck.Wait()
	}
	if err != nil {
		return fmt.Errorf("composed sort: %w", err)
	}
	sp.End(map[string]any{"records": len(sorted)})
	if checksum(sorted) != sum {
		return fmt.Errorf("the composed sds driver's output differs from the layer-by-layer output")
	}
	return rc.cleanScratch()
}

// partitionBounds is core.Sort's skew-aware partition: NewStripe, then
// Fast, or Stable with its duplicate-count all-gather.
func partitionBounds(c *comm.Comm, data, pg []float64, runs []partition.PivotRun, stable bool) ([]int, error) {
	loc := partition.NewStripe(data, len(pg)+1, cmpF)
	if !stable {
		bounds := partition.Fast(data, pg, loc, cmpF)
		return bounds, partition.Validate(bounds, len(data))
	}
	var dupCounts [][]int64
	if len(runs) > 0 {
		parts, err := c.Allgather(comm.EncodeInt64s(partition.LocalDupCounts(data, pg, runs, loc)))
		if err != nil {
			return nil, err
		}
		dupCounts = make([][]int64, len(runs))
		for k := range dupCounts {
			dupCounts[k] = make([]int64, c.Size())
		}
		for r, buf := range parts {
			vals, err := comm.DecodeInt64s(buf)
			if err != nil || len(vals) != len(runs) {
				return nil, fmt.Errorf("bad duplicate counts from rank %d", r)
			}
			for k, v := range vals {
				dupCounts[k][r] = v
			}
		}
	}
	bounds, err := partition.Stable(data, pg, loc, cmpF, c.Rank(), dupCounts)
	if err != nil {
		return nil, err
	}
	return bounds, partition.Validate(bounds, len(data))
}

// save writes one phase snapshot synchronously, in its own span; a nil
// store (checkpointing off) saves nothing.
func (rc *rankCtx) save(store *checkpoint.Store, ph checkpoint.Phase, bounds []int64, recs []float64) error {
	if store == nil {
		return nil
	}
	n := len(recs) * f64.Size()
	sp := rc.span("checkpoint.save", map[string]any{"phase": ph.String(), "bytes": n})
	m := checkpoint.Manifest{Phase: ph, Rank: rc.c.Rank(), Leader: true, Bounds: bounds}
	if err := checkpoint.Save(store, m, f64, recs); err != nil {
		return err
	}
	sp.End(nil)
	return nil
}

// spillIteration is one sort of the streaming spill path sdsnode takes
// for -in with -spill-dir: SortFileShard, then the lazy merge streamed
// into the output shard, with the spill counters and the budget gauge's
// peak recorded on the stream span; then the same two calls again
// under one span, for coverage.
func (rc *rankCtx) spillIteration() error {
	if err := rc.c.Barrier(); err != nil {
		return err
	}
	stats := &metrics.SpillStats{}
	gauge := memlimit.New(rc.wl.mem)
	sp := rc.span("core.spill_sort", map[string]any{"collective": true})
	blk, err := rc.spillSort(gauge, stats)
	if err != nil {
		return err
	}
	sp.End(map[string]any{"records": blk.Records()})
	sp = rc.span("extsort.stream", nil)
	if err := streamTo(blk, rc.shardPath("out")); err != nil {
		return err
	}
	sp.End(map[string]any{
		"runs": stats.RunsSpilled.Load(), "bytes": stats.BytesSpilled.Load(),
		"merge_passes": stats.MergePasses.Load(), "mem_peak": gauge.Peak(),
	})

	if err := rc.c.Barrier(); err != nil {
		return err
	}
	sp = rc.span("composed", nil)
	blk, err = rc.spillSort(memlimit.New(rc.wl.mem), &metrics.SpillStats{})
	if err == nil {
		err = streamTo(blk, rc.shardPath("composed"))
	}
	if err != nil {
		return fmt.Errorf("composed sort: %w", err)
	}
	sp.End(nil)
	a, err := fileChecksum(rc.shardPath("out"))
	if err != nil {
		return err
	}
	b, err := fileChecksum(rc.shardPath("composed"))
	if err != nil {
		return err
	}
	if a != b {
		return fmt.Errorf("the repeated spill sort's output differs from the first")
	}
	return rc.cleanScratch()
}

// spillSort runs core.SortFileShard with sdsnode's spill options for
// the workload's budget.
func (rc *rankCtx) spillSort(gauge *memlimit.Gauge, stats *metrics.SpillStats) (*core.Spilled[float64], error) {
	opt := core.DefaultOptions()
	opt.Mem = gauge
	opt.Spill = &core.SpillOptions{Dir: rc.scratch("spill"), Stats: stats}
	opt.Spill.FitBudget(rc.wl.mem)
	blk, err := core.SortFileShard(rc.c, rc.in, f64, cmpF, opt)
	if err != nil {
		return nil, fmt.Errorf("spill sort: %w", err)
	}
	return blk, nil
}

// streamTo streams the spilled block into path and removes its runs.
func streamTo(blk *core.Spilled[float64], path string) error {
	defer blk.Remove()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := blk.Stream(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scratch returns (creating it) a directory under the run's scratch
// space shared by all ranks.
func (rc *rankCtx) scratch(parts ...string) string {
	d := filepath.Join(append([]string{rc.dir}, parts...)...)
	_ = os.MkdirAll(d, 0o755) // a failure shows at the first write into it
	return d
}

// shardPath is this rank's output shard under sub.
func (rc *rankCtx) shardPath(sub string) string {
	return filepath.Join(rc.scratch(sub), "shard."+strconv.Itoa(rc.c.Rank()))
}

// cleanScratch removes the iteration's checkpoint, spill and composed
// files once every rank is done with them.
func (rc *rankCtx) cleanScratch() error {
	if err := rc.c.Barrier(); err != nil {
		return err
	}
	if rc.c.Rank() == 0 {
		for _, sub := range []string{"ckpt", "spill", "composed"} {
			if err := os.RemoveAll(filepath.Join(rc.dir, sub)); err != nil {
				return err
			}
		}
	}
	return rc.c.Barrier()
}

func checksum(recs []float64) uint32 {
	b, _ := codec.View(f64, recs)
	return crc32.ChecksumIEEE(b)
}

func fileChecksum(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

// writeEvents writes the recorded events as JSON lines.
func writeEvents(path string, events []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
