package core

import (
	"fmt"

	"sdssort/internal/codec"
	"sdssort/internal/comm"
	"sdssort/internal/metrics"
	"sdssort/internal/partition"
	"sdssort/internal/psort"
	"sdssort/internal/trace"
)

// effStage rounds the configured stage size down to a whole number of
// records (chunks must never split a record), with a floor of one
// record. Returns 0 — one chunk per peer — when StageBytes is 0.
func effStage(stageBytes, recSize int64) int64 {
	if stageBytes <= 0 {
		return 0
	}
	n := stageBytes - stageBytes%recSize
	if n < recSize {
		n = recSize
	}
	return n
}

// sendBytesOf converts partition bounds into the per-destination byte
// matrix the staged collective wants.
func sendBytesOf(bounds []int, p int, recSize int64) []int64 {
	sb := make([]int64, p)
	for dst := 0; dst < p; dst++ {
		sb[dst] = int64(bounds[dst+1]-bounds[dst]) * recSize
	}
	return sb
}

func scale(counts []int64, by int64) []int64 {
	out := make([]int64, len(counts))
	for i, c := range counts {
		out[i] = c * by
	}
	return out
}

// exchangeBlock is the exchange tail core.Sort and ExchangeSorted share
// (Fig. 1 lines 11-27): the count exchange, the receive-buffer
// reservation with the collective spill vote, then the spilled,
// synchronous or overlapped exchange with its local ordering. spilled
// reports that the exchange went through disk runs; spillExchange has
// then already traded the work reservation for the output's.
func exchangeBlock[T any](wc *comm.Comm, work []T, bounds []int, cd codec.Codec[T], cmp func(a, b T) int, opt Options, tm *metrics.PhaseTimer, acct *memAcct) (out []T, spilled bool, err error) {
	p := wc.Size()
	rank := wc.Rank()
	recSize := int64(cd.Size())
	tr := opt.tracer()

	// Exchange the send counts (lines 11-13) and budget the receive
	// buffer (line 14) — this is where a collapsed partition dies of
	// OOM on a real machine.
	tm.Start(metrics.PhaseExchange)
	scounts := partition.Counts(bounds)
	tr.Emit(rank, "partition.histogram", histogramDetail(scounts))
	rcounts, err := exchangeCounts(wc, scounts)
	if err != nil {
		return nil, false, fmt.Errorf("core: count exchange: %w", err)
	}
	var m int64
	for _, rc := range rcounts {
		m += rc
	}
	tr.Emit(rank, "exchange.plan", map[string]any{
		"send_records": len(work), "recv_records": m,
		"overlap":     !opt.Stable && p <= opt.TauO,
		"stage_bytes": effStage(opt.StageBytes, recSize),
		"zero_copy":   codec.IsZeroCopy(cd),
	})
	// Output-side skew: the received partition sizes — the loads the
	// paper's RDFA metric measures and skew-aware splitting bounds.
	if err := observeSkew(wc, metrics.SkewExchange, m, opt, tr, rank); err != nil {
		return nil, false, err
	}
	// Receive-buffer budgeting doubles as the spill trigger: with a
	// spill tier configured, a receive side that does not fit (or
	// Spill.Force) diverts the exchange through disk runs instead of
	// dying of OOM. The decision is collective — the exchange is one
	// collective, so if any rank must spill, every rank takes the
	// spilled path.
	reserveErr := acct.reserve(m * recSize)
	if opt.Spill != nil {
		spill, aerr := agreeSpill(wc, opt.Spill.Force || reserveErr != nil)
		if aerr != nil {
			return nil, false, aerr
		}
		if spill {
			if reserveErr == nil {
				acct.release(m * recSize)
			}
			out, err = spillExchange(wc, work, bounds, rcounts, m, cd, cmp, opt, tm, acct, tr, rank)
			return out, true, err
		}
	}
	if reserveErr != nil {
		return nil, false, fmt.Errorf("core: receive buffer of %d records: %w", m, reserveErr)
	}

	// Exchange + local ordering (lines 15-27).
	if opt.Stable || p > opt.TauO {
		out, err = syncExchange(wc, work, bounds, rcounts, cd, cmp, opt, tm, acct)
	} else {
		out, err = overlapExchange(wc, work, bounds, rcounts, cd, cmp, opt, tm, acct)
	}
	return out, false, err
}

// sender is the send side of every exchange path (sync, overlap,
// spill) and the one place the zero-copy versus marshal decision is
// made. A codec whose wire form is its memory image sends views of the
// work slab (codec.View); any other codec encodes each chunk into a
// pooled buffer.
type sender[T any] struct {
	work    []T
	bounds  []int
	cd      codec.Codec[T]
	recSize int64
	ex      *metrics.ExchangeStats
	view    []byte // the work slab's wire form, on the zero-copy path
	zc      bool
	pool    codec.BufferPool
}

func newSender[T any](work []T, bounds []int, cd codec.Codec[T], ex *metrics.ExchangeStats) *sender[T] {
	s := &sender[T]{work: work, bounds: bounds, cd: cd, recSize: int64(cd.Size()), ex: ex}
	s.view, s.zc = codec.View(cd, work)
	return s
}

// chunk returns the n bytes at payload offset off of dst's partition.
// Offsets and sizes are whole records because effStage is a multiple
// of the record size.
func (s *sender[T]) chunk(dst int, off, n int64) []byte {
	if s.zc {
		lo := int64(s.bounds[dst])*s.recSize + off
		return s.view[lo : lo+n : lo+n]
	}
	lo := s.bounds[dst] + int(off/s.recSize)
	return codec.EncodeSlice(s.cd, s.pool.Get(int(n)), s.work[lo:lo+int(n/s.recSize)])
}

// done recycles a chunk once the transport no longer needs it.
func (s *sender[T]) done(buf []byte) {
	if !s.zc {
		s.pool.Put(buf)
	}
}

// window is the staging memory an exchange reserves: one incoming
// chunk, plus the outgoing encode buffer on the marshal path. Stage 0
// (one chunk per peer) reserves none.
func (s *sender[T]) window(stage int64) int64 {
	if s.zc {
		return stage
	}
	return 2 * stage
}

// account books the payload the send side moved, the self partition
// included: staged bytes and chunks, plus the zero-copy counters or
// the encode pool's recycling.
func (s *sender[T]) account(bytes, chunks int64) {
	s.ex.AddStaged(bytes, chunks)
	if s.zc {
		s.ex.AddZeroCopy(bytes, chunks)
	} else {
		s.ex.AddPool(s.pool.Stats())
	}
}

// alltoall runs the staged collective with this send side and the
// given receive side.
func (s *sender[T]) alltoall(wc *comm.Comm, stage int64, rcounts []int64, drain func(src int, off int64, chunk []byte) error) (comm.StagedStats, error) {
	st, err := wc.StagedAlltoallv(comm.StagedOptions{
		StageBytes: stage,
		SendBytes:  sendBytesOf(s.bounds, wc.Size(), s.recSize),
		RecvBytes:  scale(rcounts, s.recSize),
		Fill:       func(dst int, off, n int64) ([]byte, error) { return s.chunk(dst, off, n), nil },
		FillDone:   func(_ int, buf []byte) { s.done(buf) },
		OnWindow:   s.ex.AddWindow,
		Drain:      drain,
	})
	s.account(st.BytesStaged, st.Chunks)
	return st, err
}

// stream hands dst's partition to put in offset order, cut into
// stage-sized chunks (one chunk when stage is 0), and returns the
// bytes and chunks it moved.
func (s *sender[T]) stream(dst int, stage int64, put func(buf []byte) error) (bytes, chunks int64, err error) {
	total := int64(s.bounds[dst+1]-s.bounds[dst]) * s.recSize
	for bytes < total {
		n := total - bytes
		if stage > 0 && n > stage {
			n = stage
		}
		buf := s.chunk(dst, bytes, n)
		s.ex.AddWindow(n)
		err := put(buf)
		s.done(buf)
		s.ex.AddWindow(-n)
		if err != nil {
			return bytes, chunks, err
		}
		bytes += n
		chunks++
	}
	return bytes, chunks, nil
}

// recvSlab lays out the receive side: one rank-ordered slab of every
// incoming record, and per source an empty slice over its region,
// capped so that drain, which append-decodes src's next chunk (in the
// comm.StagedOptions.Drain shape), fills the region in place.
func recvSlab[T any](cd codec.Codec[T], rcounts []int64) (slab []T, regions [][]T, drain func(src int, off int64, chunk []byte) error) {
	var m int64
	for _, rc := range rcounts {
		m += rc
	}
	slab = make([]T, m)
	regions = make([][]T, len(rcounts))
	var lo int64
	for src, rc := range rcounts {
		regions[src] = slab[lo:lo:(lo + rc)]
		lo += rc
	}
	drain = func(src int, _ int64, chunk []byte) (err error) {
		regions[src], err = codec.DecodeAppend(cd, regions[src], chunk)
		return err
	}
	return slab, regions, drain
}

// reserveWindow reserves an exchange's staging window against the
// budget and records it as a peak. The caller releases it.
func reserveWindow(window int64, opt Options, acct *memAcct) error {
	if window == 0 {
		return nil
	}
	if err := acct.reserve(window); err != nil {
		return fmt.Errorf("core: staging window of %d bytes: %w", window, err)
	}
	opt.Exchange.ObservePeakStaging(window)
	return nil
}

// syncExchange is the synchronous path (Fig. 1 lines 16-21): the staged
// all-to-all, then local ordering by k-way merge (p < τs) or by
// re-sorting (p >= τs). Arriving chunks are decoded straight into
// their source's region of the receive slab, so the only memory beyond
// input and receive buffers is the staging window. Chunks of a source
// arrive in offset order and the regions are rank-ordered, which with
// the stable merge carries stability end to end.
func syncExchange[T any](wc *comm.Comm, work []T, bounds []int, rcounts []int64, cd codec.Codec[T], cmp func(a, b T) int, opt Options, tm *metrics.PhaseTimer, acct *memAcct) ([]T, error) {
	p := wc.Size()
	rank := wc.Rank()
	tr := opt.tracer()
	stage := effStage(opt.StageBytes, int64(cd.Size()))
	s := newSender(work, bounds, cd, opt.Exchange)
	esp := trace.StartSpan(tr, rank, opt.Span, "exchange", map[string]any{
		"overlap": false, "zero_copy": s.zc,
	})
	window := s.window(stage)
	if err := reserveWindow(window, opt, acct); err != nil {
		return nil, err
	}
	defer acct.release(window)

	slab, regions, drain := recvSlab(cd, rcounts)
	st, err := s.alltoall(wc, stage, rcounts, drain)
	if err != nil {
		return nil, fmt.Errorf("core: staged alltoall: %w", err)
	}
	esp.End(map[string]any{
		"recv_records": int64(len(slab)), "recv_bytes": int64(len(slab)) * s.recSize,
		"send_records": int64(len(work)), "bytes_staged": st.BytesStaged, "chunks": st.Chunks,
	})

	tm.Start(metrics.PhaseLocalOrdering)
	merge := p < opt.TauS
	osp := trace.StartSpan(tr, rank, opt.Span, "localorder", map[string]any{"merge": merge})
	if merge {
		// Merge the p sorted regions in place: O(m log p), stable by
		// source rank (SdssMergeAll).
		out := psort.KWayMerge(regions, cmp)
		osp.End(map[string]any{"records": len(out)})
		return out, nil
	}
	// Re-sort: O(m log m) but independent of p (SdssLocalSort on the
	// incoming data). The slab is the rank-ordered concatenation, which
	// keeps the stable variant stable. Integer-keyed codecs dispatch to
	// the LSD radix pass.
	if !reorderFast(slab, cd, cmp, opt) {
		psort.ParallelSort(slab, opt.cores(), opt.Stable, cmp)
	}
	osp.End(map[string]any{"records": len(slab)})
	return slab, nil
}

// overlapExchange is the asynchronous path (Fig. 1 lines 23-27):
// receives from all peers are posted up front, a sender goroutine
// streams the partitions out chunk by chunk, and each source is merged
// into the running result as soon as its last chunk has landed in its
// slab region, while the rest of the exchange is still in flight
// (SdssAlltoallvAsync + SdssMergeTwo) — at most p-1 merges. Only the
// fast (non-stable) sort may take this path.
func overlapExchange[T any](wc *comm.Comm, work []T, bounds []int, rcounts []int64, cd codec.Codec[T], cmp func(a, b T) int, opt Options, tm *metrics.PhaseTimer, acct *memAcct) ([]T, error) {
	p := wc.Size()
	me := wc.Rank()
	stage := effStage(opt.StageBytes, int64(cd.Size()))
	s := newSender(work, bounds, cd, opt.Exchange)
	// One span covers the whole overlapped phase: exchange and local
	// ordering genuinely interleave here, so splitting them would be
	// fiction.
	esp := trace.StartSpan(opt.tracer(), me, opt.Span, "exchange", map[string]any{
		"overlap": true, "zero_copy": s.zc,
	})
	window := s.window(stage)
	if err := reserveWindow(window, opt, acct); err != nil {
		return nil, err
	}
	defer acct.release(window)

	slab, regions, drain := recvSlab(cd, rcounts)
	// remaining[src] is how many payload bytes src still owes us; its
	// receive is reposted in place until that reaches zero.
	remaining := scale(rcounts, s.recSize)
	var reqs []*comm.Request
	var srcs []int
	for src := 0; src < p; src++ {
		if src == me || rcounts[src] == 0 {
			continue
		}
		r, err := wc.Irecv(src, tagExchange)
		if err != nil {
			return nil, fmt.Errorf("core: irecv from %d: %w", src, err)
		}
		reqs = append(reqs, r)
		srcs = append(srcs, src)
	}

	type sent struct {
		bytes, chunks int64
		err           error
	}
	// The buffer holds the one result, so the sender never blocks on
	// it; the error returns below leave it to finish its eager sends.
	sendDone := make(chan sent, 1)
	go func() {
		var res sent
		for k := 1; k < p && res.err == nil; k++ {
			dst := (me + k) % p
			b, c, err := s.stream(dst, stage, func(buf []byte) error { return wc.Send(dst, tagExchange, buf) })
			res.bytes, res.chunks = res.bytes+b, res.chunks+c
			if err != nil {
				res.err = fmt.Errorf("core: send to %d: %w", dst, err)
			}
		}
		sendDone <- res
	}()
	// The self partition takes the same chunked fill/decode as the
	// sync path's round 0, so both paths move and count the same bytes.
	selfBytes, selfChunks, err := s.stream(me, stage, func(buf []byte) error { return drain(me, 0, buf) })
	if err != nil {
		return nil, fmt.Errorf("core: self copy: %w", err)
	}

	out := regions[me]
	merges := 0
	consumed := make([]bool, len(reqs))
	for {
		i, buf, err := comm.WaitAnyMask(reqs, consumed)
		if err != nil {
			return nil, fmt.Errorf("core: overlapped recv: %w", err)
		}
		if i < 0 {
			break
		}
		src := srcs[i]
		n := int64(len(buf))
		if n == 0 || n > remaining[src] {
			return nil, fmt.Errorf("core: rank %d sent a %d-byte chunk with %d bytes outstanding", src, n, remaining[src])
		}
		// Decoding is the receive half of the transfer, so it stays on
		// the exchange clock; only the merge is local ordering.
		opt.Exchange.AddWindow(n)
		err = drain(src, 0, buf)
		opt.Exchange.AddWindow(-n)
		if err != nil {
			return nil, fmt.Errorf("core: decode from rank %d: %w", src, err)
		}
		if remaining[src] -= n; remaining[src] > 0 {
			if reqs[i], err = wc.Irecv(src, tagExchange); err != nil {
				return nil, fmt.Errorf("core: irecv from %d: %w", src, err)
			}
			consumed[i] = false
			continue
		}
		tm.Start(metrics.PhaseLocalOrdering)
		out = psort.MergeTwo(out, regions[src], cmp)
		merges++
		tm.Start(metrics.PhaseExchange)
	}
	res := <-sendDone
	if res.err != nil {
		return nil, res.err
	}
	s.account(selfBytes+res.bytes, selfChunks+res.chunks)
	esp.End(map[string]any{
		"recv_records": int64(len(slab)), "recv_bytes": int64(len(slab)) * s.recSize,
		"send_records": int64(len(work)), "bytes_staged": selfBytes + res.bytes,
		"chunks": selfChunks + res.chunks, "merges": merges,
	})
	return out, nil
}
