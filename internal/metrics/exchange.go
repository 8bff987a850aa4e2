package metrics

import (
	"fmt"
	"sync/atomic"
)

// ExchangeStats counts what the staged all-to-all data exchange did:
// how many bytes moved through the bounded staging window, how large
// that window ever got on the memlimit gauge, and how well the encode
// buffer pool recycled. One ExchangeStats may be shared by every rank
// of an in-process job (the counters are atomic), mirroring how one
// memlimit.Gauge models a shared budget.
type ExchangeStats struct {
	// BytesStaged is the total payload bytes that passed through
	// staging buffers (sent chunks plus the self-copy).
	BytesStaged atomic.Int64
	// StageChunks is the number of chunks those bytes were split into.
	StageChunks atomic.Int64
	// PeakStagingReserved is the largest staging-window reservation any
	// single exchange made against the memory gauge.
	PeakStagingReserved atomic.Int64
	// PoolHits / PoolMisses count encode-buffer pool lookups that were
	// served from the free list versus freshly allocated.
	PoolHits   atomic.Int64
	PoolMisses atomic.Int64
	// ZeroCopyBytes / ZeroCopyChunks count exchange payload moved by
	// the zero-copy path: scatter-gathered directly between record
	// slabs and the transport, with no encode/decode through pooled
	// buffers. The bytes are the whole partitioned working set the
	// exchange sent, the self partition included, on the synchronous,
	// overlapped and spilled paths alike (the same bytes BytesStaged
	// counts). Zero on both means every exchange took the generic
	// marshal path.
	ZeroCopyBytes  atomic.Int64
	ZeroCopyChunks atomic.Int64
	// WindowBytes is a live gauge of staging-window occupancy: chunk
	// bytes currently held by in-flight staged exchanges, summed across
	// every rank sharing this ExchangeStats. It returns to zero when no
	// exchange is running.
	WindowBytes atomic.Int64
}

// AddWindow accrues a (possibly negative) staging-window delta; it is
// the comm.StagedOptions.OnWindow hook.
func (s *ExchangeStats) AddWindow(delta int64) {
	if s == nil {
		return
	}
	s.WindowBytes.Add(delta)
}

// ObservePeakStaging raises PeakStagingReserved to v if v is larger.
func (s *ExchangeStats) ObservePeakStaging(v int64) {
	if s == nil {
		return
	}
	for {
		p := s.PeakStagingReserved.Load()
		if v <= p || s.PeakStagingReserved.CompareAndSwap(p, v) {
			return
		}
	}
}

// AddPool accrues buffer-pool counters.
func (s *ExchangeStats) AddPool(hits, misses int64) {
	if s == nil {
		return
	}
	s.PoolHits.Add(hits)
	s.PoolMisses.Add(misses)
}

// AddStaged accrues staged traffic: bytes through the window and the
// chunk count they were split into.
func (s *ExchangeStats) AddStaged(bytes, chunks int64) {
	if s == nil {
		return
	}
	s.BytesStaged.Add(bytes)
	s.StageChunks.Add(chunks)
}

// AddZeroCopy accrues payload moved by the zero-copy path.
func (s *ExchangeStats) AddZeroCopy(bytes, chunks int64) {
	if s == nil {
		return
	}
	s.ZeroCopyBytes.Add(bytes)
	s.ZeroCopyChunks.Add(chunks)
}

// ZeroCopyUsed reports whether any exchange traffic took the zero-copy
// path since the counters were created.
func (s *ExchangeStats) ZeroCopyUsed() bool {
	return s != nil && s.ZeroCopyChunks.Load() > 0
}

// PoolHitRate returns the fraction of pool lookups served without
// allocating, or 0 when the pool was never used.
func (s *ExchangeStats) PoolHitRate() float64 {
	if s == nil {
		return 0
	}
	h, m := s.PoolHits.Load(), s.PoolMisses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// String renders the counters on one line for reports.
func (s *ExchangeStats) String() string {
	if s == nil {
		return "exchange: unstaged"
	}
	return fmt.Sprintf("exchange: %d bytes staged in %d chunks, peak staging %dB, pool hit rate %.2f, zero-copy %dB in %d chunks",
		s.BytesStaged.Load(), s.StageChunks.Load(), s.PeakStagingReserved.Load(), s.PoolHitRate(),
		s.ZeroCopyBytes.Load(), s.ZeroCopyChunks.Load())
}
