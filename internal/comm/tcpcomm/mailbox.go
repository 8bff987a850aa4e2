package tcpcomm

import (
	"sync"
	"time"

	"sdssort/internal/comm"
)

type message struct {
	src  int
	ctx  uint64
	tag  int32
	data []byte
}

type msgKey struct {
	src int
	ctx uint64
	tag int32
}

// mailbox holds incoming frames keyed by (src, ctx, tag) with FIFO order
// per key — the same non-overtaking guarantee the in-process transport
// provides, fed here by the per-connection reader goroutines. A source
// can additionally be failed (frames from it were definitively lost):
// takes for a failed source drain what already arrived, then surface
// the recorded error instead of blocking forever.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[msgKey][][]byte
	failed map[int]error // per-source terminal failures
	closed bool
}

func newMailbox() *mailbox {
	b := &mailbox{queues: make(map[msgKey][][]byte), failed: make(map[int]error)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) put(m message) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	k := msgKey{src: m.src, ctx: m.ctx, tag: m.tag}
	b.queues[k] = append(b.queues[k], m.data)
	b.cond.Broadcast()
	return nil
}

// fail marks src as lost: blocked and future takes from src return err
// once their queue is drained. The first failure per source wins.
func (b *mailbox) fail(src int, err error) {
	b.mu.Lock()
	if _, dup := b.failed[src]; !dup {
		b.failed[src] = err
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// take returns the next frame for (src, ctx, tag), blocking until one
// arrives. With timeout > 0 the wait is bounded and expiry returns
// comm.ErrRecvTimeout.
func (b *mailbox) take(src int, ctx uint64, tag int32, timeout time.Duration) ([]byte, error) {
	k := msgKey{src: src, ctx: ctx, tag: tag}
	b.mu.Lock()
	defer b.mu.Unlock()
	expired := false
	if timeout > 0 {
		// sync.Cond has no timed wait: an AfterFunc flips the flag
		// under the lock and wakes every waiter.
		timer := time.AfterFunc(timeout, func() {
			b.mu.Lock()
			expired = true
			b.mu.Unlock()
			b.cond.Broadcast()
		})
		defer timer.Stop()
	}
	for {
		if q := b.queues[k]; len(q) > 0 {
			data := q[0]
			if len(q) == 1 {
				delete(b.queues, k)
			} else {
				b.queues[k] = q[1:]
			}
			return data, nil
		}
		if err := b.failed[src]; err != nil {
			return nil, err
		}
		if b.closed {
			return nil, ErrClosed
		}
		if expired {
			return nil, comm.ErrRecvTimeout
		}
		b.cond.Wait()
	}
}

func (b *mailbox) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
}
