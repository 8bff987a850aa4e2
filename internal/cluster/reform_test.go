package cluster

import (
	"net"
	"sync"
	"testing"
	"time"

	"sdssort/internal/comm/tcpcomm"
)

// TestReformOutlastsRecvTimeout: survivors reach Reform skewed by more
// than the transport's receive timeout (one learns of a loss from a
// failed send, another only when its own receive times out). The
// reform barrier must wait out the skew up to Reform's deadline, not
// fail on the failure detector's receive timeout.
func TestReformOutlastsRecvTimeout(t *testing.T) {
	const (
		size        = 3
		recvTimeout = 100 * time.Millisecond
		lateBy      = 5 * recvTimeout
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	registry := ln.Addr().String()
	ln.Close()

	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := tcpcomm.New(tcpcomm.Config{
				Rank: rank, Size: size, Registry: registry,
				Timeout: 15 * time.Second, RecvTimeout: recvTimeout,
			})
			if err != nil {
				errs[rank] = err
				return
			}
			defer tr.Close()
			if rank == size-1 {
				time.Sleep(lateBy)
			}
			c, err := Reform(tr, "world@e1s3", []int{0, 1, 2}, 10*time.Second)
			if err != nil {
				errs[rank] = err
				return
			}
			// Hold the transport open until every rank has left the
			// barrier, so no rank's close fails a peer's last receive.
			errs[rank] = c.Barrier()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}
