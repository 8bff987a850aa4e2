// Package cluster launches in-process "clusters": p ranks as goroutines
// over a comm.World fabric, grouped into simulated nodes of c cores
// each. It is the stand-in for the MPI job launcher (aprun/srun) on the
// paper's Cray XC30 testbed.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"sdssort/internal/checkpoint"
	"sdssort/internal/comm"
	"sdssort/internal/engine"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/telemetry"
	"sdssort/internal/trace"
)

// Topology describes the simulated machine shape.
type Topology struct {
	// Nodes is the number of simulated compute nodes.
	Nodes int
	// CoresPerNode is the number of ranks placed on each node. The
	// paper's Edison nodes have 24; laptop-scale runs typically use
	// 2-8.
	CoresPerNode int
}

// Size returns the total rank count.
func (t Topology) Size() int { return t.Nodes * t.CoresPerNode }

// Validate reports whether the topology is runnable.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.CoresPerNode <= 0 {
		return fmt.Errorf("cluster: topology %d nodes × %d cores must be positive", t.Nodes, t.CoresPerNode)
	}
	return nil
}

// Options configures a launch beyond the topology.
type Options struct {
	// WrapTransport, when non-nil, decorates each rank's transport
	// before the communicator is built — used to layer the simnet
	// network-cost model under the algorithms.
	WrapTransport func(comm.Transport) comm.Transport
	// MaxRestarts bounds how many recovery epochs RunSupervised may
	// start after the initial attempt. 0 means fail on the first loss
	// (plain Run semantics).
	MaxRestarts int
	// Trace, when non-nil, receives supervisor events
	// (supervisor.restart / supervisor.giveup / supervisor.done) at
	// rank -1 alongside whatever the job itself emits.
	Trace trace.Tracer
	// Recovery, when non-nil, accumulates restart and lost-rank
	// counters across the supervised run.
	Recovery *metrics.RecoveryStats
	// Mem, when non-nil, is the memory gauge the job reserves against
	// (typically the same one passed to core.Options.Mem). After a
	// fully successful epoch the launcher asserts it has drained back
	// to zero, turning a reservation leak into a loud failure instead
	// of an eventual spurious out-of-memory in a long-lived process.
	Mem *memlimit.Gauge
	// Telemetry, when non-nil, gets this launch's collectors registered
	// on it: RunEngine registers the engine's job life-cycle series and
	// (when Mem is set) the admission gauge. Use a fresh registry per
	// launch — series registration is once-only.
	Telemetry *telemetry.Registry
	// Shrink configures degraded-mode resume for RunSupervised: instead
	// of relaunching the full world after a lost rank, keep the
	// survivors and continue on a world of size p−k.
	Shrink ShrinkPolicy
}

// ShrinkPolicy lets RunSupervised heal a recoverable failure in place:
// when the lost ranks can be identified and enough survivors remain,
// the supervisor redistributes the dead ranks' checkpointed shards over
// the survivors (via the Redistribute hook) and starts the next epoch
// as a degraded world of the surviving size, rather than tearing
// everything down and relaunching at full size. Shrink epochs and
// relaunch epochs draw from the same MaxRestarts budget.
type ShrinkPolicy struct {
	// Enabled turns degraded-mode resume on.
	Enabled bool
	// MinRanks floors the shrunken world size; a failure that would
	// leave fewer survivors falls back to a full relaunch. Values below
	// 2 are treated as 2 — a 1-rank "world" is not a distributed sort.
	MinRanks int
	// Redistribute rebuilds the checkpoint cut for the surviving world,
	// typically by scanning the failed world's store and calling
	// checkpoint.Redistribute with the job's codec and comparator. lost
	// holds the failed world's comm ranks that died, oldSize that
	// world's size, and newEpoch the epoch number the degraded attempt
	// will run as (snapshot the new cut under it). Returning an error —
	// a second loss tearing a survivor's snapshot mid-redistribution
	// lands here — aborts the shrink; the supervisor falls back to the
	// relaunch path, whose full-size store still sees the old cut
	// because redistributed manifests carry the shrunken world size.
	Redistribute func(lost []int, oldSize, newEpoch int) (checkpoint.Cut, error)
}

// Run launches one goroutine per rank, each receiving the world
// communicator for an in-process fabric shaped like topo, and waits for
// all of them. If any rank returns an error the fabric is shut down so
// the remaining ranks unblock, and the per-rank errors are joined.
func Run(topo Topology, fn func(c *comm.Comm) error) error {
	return RunOpts(topo, Options{}, fn)
}

// RunOpts is Run with launch options.
func RunOpts(topo Topology, opts Options, fn func(c *comm.Comm) error) error {
	return launch(topo, opts, "world", fn)
}

// PanicError is the typed rank failure a recovered panic becomes, so
// supervisors can treat a crashed rank like a lost one (errors.As).
type PanicError struct {
	Rank  int
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("rank %d: panic: %v", e.Rank, e.Value)
}

// launch builds a fresh fabric named name, runs one goroutine per rank
// and joins their errors. Each supervised epoch gets its own launch —
// fabric, transports and communicator are never reused across epochs.
func launch(topo Topology, opts Options, name string, fn func(c *comm.Comm) error) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	return launchSized(topo.Size(), topo.CoresPerNode, opts, name, fn)
}

// launchSized is launch for an explicit rank count, which need not be a
// multiple of the node width — a degraded world of p−k ranks keeps the
// original cores-per-node packing with a partially filled last node.
func launchSized(size, coresPerNode int, opts Options, name string, fn func(c *comm.Comm) error) error {
	world, err := comm.NewWorld(size, comm.BlockNodes(size, coresPerNode))
	if err != nil {
		return err
	}
	defer world.Close()

	errs := make([]error, size)
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(rank int) {
			defer wg.Done()
			// A panicking rank must not take the whole process down:
			// convert it to a rank error and unblock the peers, the
			// way an MPI job launcher reports a crashed rank.
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = &PanicError{Rank: rank, Value: p}
					once.Do(func() { world.Close() })
				}
			}()
			tr := comm.Transport(world.Transport(rank))
			if opts.WrapTransport != nil {
				tr = opts.WrapTransport(tr)
			}
			c := comm.NewNamed(tr, name)
			if err := fn(c); err != nil {
				errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
				// Tear the fabric down so ranks blocked in
				// collectives with this one fail fast instead
				// of deadlocking the launch.
				once.Do(func() { world.Close() })
			}
		}(r)
	}
	wg.Wait()

	var nonNil []error
	for _, e := range errs {
		if e != nil {
			nonNil = append(nonNil, e)
		}
	}
	if len(nonNil) == 0 && opts.Mem != nil {
		if used := opts.Mem.Used(); used != 0 {
			return fmt.Errorf("cluster: memory gauge holds %d bytes after a successful run (reservation leak)", used)
		}
	}
	return errors.Join(nonNil...)
}

// RunEngine builds an in-process fabric shaped like topo and hosts a
// persistent job engine over it: where Run pays fabric construction for
// one sort and tears everything down, RunEngine keeps transports and
// rank workers warm so fn can submit any number of jobs — sequentially
// or concurrently — against the same fabric. opts.Mem becomes the
// engine's shared admission gauge and, as in RunOpts, is asserted to
// have drained back to zero once the engine is closed; opts.Trace
// receives the engine's life-cycle events at rank -1.
//
// The engine is drained and closed before RunEngine returns, even when
// fn errors: jobs already submitted run to completion.
func RunEngine(topo Topology, opts Options, fn func(e *engine.Engine) error) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	size := topo.Size()
	world, err := comm.NewWorld(size, comm.BlockNodes(size, topo.CoresPerNode))
	if err != nil {
		return err
	}
	defer world.Close()
	eng := engine.New(world, engine.Options{
		Mem:           opts.Mem,
		WrapTransport: opts.WrapTransport,
		Trace:         opts.Trace,
	})
	if opts.Telemetry != nil {
		eng.RegisterMetrics(opts.Telemetry)
		if opts.Mem != nil {
			telemetry.RegisterMem(opts.Telemetry, opts.Mem)
		}
	}
	fnErr := fn(eng)
	closeErr := eng.Close()
	if fnErr == nil && closeErr == nil && opts.Mem != nil {
		if used := opts.Mem.Used(); used != 0 {
			return fmt.Errorf("cluster: memory gauge holds %d bytes after the engine drained (reservation leak)", used)
		}
	}
	return errors.Join(fnErr, closeErr)
}

// Epoch identifies one supervised attempt. N is 0 for the initial run
// and increments on every recovery epoch — full relaunch or degraded
// resume alike; the job function typically feeds it to the checkpoint
// layer so each attempt snapshots under its own epoch number.
type Epoch struct {
	N int
	// Degraded marks an attempt running on a shrunken world: the
	// communicator spans only the previous world's survivors,
	// renumbered 0..size-1, and the job must resume from Resume rather
	// than agreeing on a cut itself (the full-size cuts in the store do
	// not match this world).
	Degraded bool
	// Resume is the redistributed cut a degraded attempt restarts from;
	// zero for full-world attempts.
	Resume checkpoint.Cut
	// Lost holds the previous world's comm ranks that died, for
	// logging; empty for full-world attempts.
	Lost []int
}

// Recoverable reports whether err is worth a restart: at least one
// member of the (possibly joined) error is a lost peer or a rank
// panic. Deterministic failures — bad input, a codec mismatch, a local
// I/O error — are not recoverable; restarting would repeat them.
func Recoverable(err error) bool {
	for _, e := range flatten(err) {
		if _, ok := comm.PeerLost(e); ok {
			return true
		}
		var pe *PanicError
		if errors.As(e, &pe) {
			return true
		}
	}
	return false
}

// RunSupervised launches fn like RunOpts and, when the attempt dies of
// a recoverable failure (comm.ErrPeerLost or a rank panic), starts a
// new recovery epoch, up to opts.MaxRestarts of them. Each epoch's
// world has a distinct communicator name ("world", "world@e1", ...), so
// frames from a dead epoch can never be delivered into a live one.
//
// With opts.Shrink enabled the supervisor prefers healing in place: if
// the failed epoch's lost ranks can be identified from its error and
// enough survivors remain, it calls Shrink.Redistribute to re-cut the
// checkpoints for the surviving world and runs the next epoch degraded
// — size p−k, ranks renumbered, Epoch.Degraded set, resuming from the
// redistributed cut. A shrink that cannot proceed (no policy, too few
// survivors, unidentifiable loss, or Redistribute failing — e.g. a
// cascading second loss mid-redistribution) falls back to relaunching
// the full-size world, which resumes from the old full-size cut.
// Shrinks and relaunches draw from the same MaxRestarts budget and are
// distinguished in trace events (supervisor.shrink / .shrink_fallback /
// .restart) and in opts.Recovery.
//
// fn is re-invoked from the top each epoch; resuming mid-sort instead
// of recomputing is the job's business (core.Options.Checkpoint). When
// the budget is exhausted the last error is returned wrapped in a
// budget message — still matching comm.PeerLost / errors.As — and a
// non-recoverable error is returned as-is immediately.
func RunSupervised(topo Topology, opts Options, fn func(ep Epoch, c *comm.Comm) error) error {
	if err := topo.Validate(); err != nil {
		return err
	}
	tr := opts.Trace
	if tr == nil {
		tr = trace.Nop{}
	}
	minRanks := opts.Shrink.MinRanks
	if minRanks < 2 {
		minRanks = 2
	}
	size := topo.Size()
	var cur Epoch
	for ep := 0; ; ep++ {
		cur.N = ep
		name := worldName(ep, cur.Degraded, size)
		// One span per supervised epoch, at rank -1: the timeline shows
		// each attempt as a slice on the control row, annotated with the
		// world it ran and how it ended (ok / shrink / restart / giveup).
		esp := trace.StartSpan(tr, -1, trace.Scope{Trace: name}, "epoch", map[string]any{
			"epoch": ep, "world": size, "degraded": cur.Degraded,
		})
		err := launchSized(size, topo.CoresPerNode, opts, name, func(c *comm.Comm) error {
			return fn(cur, c)
		})
		if err == nil {
			esp.End(map[string]any{"outcome": "ok"})
			if ep > 0 {
				tr.Emit(-1, "supervisor.done", map[string]any{
					"epochs": ep + 1, "degraded": cur.Degraded, "world": size,
				})
			}
			return nil
		}
		esp.End(map[string]any{"outcome": "error", "error": err.Error()})
		if !Recoverable(err) {
			return err
		}
		for _, e := range flatten(err) {
			if _, ok := comm.PeerLost(e); ok {
				opts.Recovery.PeerLost()
			}
			var pe *PanicError
			if errors.As(e, &pe) {
				opts.Recovery.RankPanic()
			}
		}
		if ep >= opts.MaxRestarts {
			tr.Emit(-1, "supervisor.giveup", map[string]any{
				"epoch": ep, "max_restarts": opts.MaxRestarts, "error": err.Error(),
			})
			return fmt.Errorf("cluster: restart budget %d exhausted: %w", opts.MaxRestarts, err)
		}
		lost := lostRanks(err, size)
		if next, ok := tryShrink(opts, tr, size, lost, ep+1); ok {
			size -= len(lost)
			cur = next
			continue
		}
		// Full relaunch of the original world — the pre-shrink path,
		// and the fallback when a shrink cannot proceed.
		size = topo.Size()
		cur = Epoch{}
		opts.Recovery.Restart()
		tr.Emit(-1, "supervisor.restart", map[string]any{
			"epoch": ep + 1, "error": err.Error(),
		})
	}
}

// worldName names one epoch's world. Degraded worlds carry their size
// too: a shrunken world renumbers ranks, so its frames must be
// undeliverable even into a same-epoch full world.
func worldName(ep int, degraded bool, size int) string {
	if ep == 0 {
		return "world"
	}
	if degraded {
		return fmt.Sprintf("world@e%ds%d", ep, size)
	}
	return fmt.Sprintf("world@e%d", ep)
}

// lostRanks extracts the dead ranks a failed epoch's error identifies:
// the ranks named by ErrPeerLost (a killed rank's own operations and
// its peers' abandoned retries both name it) and by rank panics.
// Survivors unblocked by the fabric teardown report plain closed-comm
// errors and are not counted.
func lostRanks(err error, size int) []int {
	seen := make(map[int]bool)
	var out []int
	add := func(r int) {
		if r >= 0 && r < size && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, e := range flatten(err) {
		if r, ok := comm.PeerLost(e); ok {
			add(r)
		}
		var pe *PanicError
		if errors.As(e, &pe) {
			add(pe.Rank)
		}
	}
	sort.Ints(out)
	return out
}

// tryShrink decides whether the next epoch may run degraded and, if so,
// redistributes the checkpoints and builds its Epoch descriptor.
func tryShrink(opts Options, tr trace.Tracer, size int, lost []int, newEpoch int) (Epoch, bool) {
	p := opts.Shrink
	if !p.Enabled || p.Redistribute == nil {
		return Epoch{}, false
	}
	minRanks := p.MinRanks
	if minRanks < 2 {
		minRanks = 2
	}
	if len(lost) == 0 || size-len(lost) < minRanks {
		return Epoch{}, false
	}
	cut, err := p.Redistribute(lost, size, newEpoch)
	if err != nil || cut.Phase == checkpoint.PhaseNone {
		reason := "no consistent cut"
		if err != nil {
			reason = err.Error()
		}
		tr.Emit(-1, "supervisor.shrink_fallback", map[string]any{
			"epoch": newEpoch, "lost": lost, "reason": reason,
		})
		return Epoch{}, false
	}
	opts.Recovery.Shrink(len(lost))
	tr.Emit(-1, "supervisor.shrink", map[string]any{
		"epoch": newEpoch, "lost": lost, "world": size - len(lost),
		"resume_epoch": cut.Epoch, "resume_phase": cut.Phase.String(),
	})
	return Epoch{Degraded: true, Resume: cut, Lost: lost}, true
}

// Reform re-forms a fenced world over the survivors of a live
// transport — the distributed analogue of a degraded relaunch, without
// tearing the fabric down: connections between survivors stay up and
// only the message context changes. Every survivor calls Reform with
// the same name and its own view of the survivor set (world ranks,
// ascending, including itself) and gets back a communicator spanning
// exactly those ranks, renumbered in group order.
//
// The returned world is verified with a barrier bounded by timeout,
// not by the transport's receive timeout: a survivor that learns of the
// loss from a failed send enters it a receive timeout or more before one
// that learns from a timed-out receive. Because the member list is
// folded into the message context (comm.AttachGroup), survivors that
// disagree on who died can never reach each other's barrier — the
// disagreement, or a listed survivor that is actually dead, surfaces as
// a timeout here rather than as a hang or a wrong-world delivery. On
// timeout the caller should fall back to the relaunch path. timeout <= 0
// defaults to 5s.
func Reform(tr comm.Transport, name string, survivors []int, timeout time.Duration) (*comm.Comm, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	c, err := comm.AttachGroup(tr, name, survivors)
	if err != nil {
		return nil, fmt.Errorf("cluster: reform: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- c.BarrierUntil(time.Now().Add(timeout)) }()
	select {
	case err := <-done:
		if err != nil {
			return nil, fmt.Errorf("cluster: reform barrier: %w", err)
		}
		return c, nil
	case <-time.After(timeout):
		// The barrier goroutine stays parked in a receive; the caller is
		// abandoning this world anyway (relaunch or exit).
		return nil, fmt.Errorf("cluster: reform of %q timed out after %v: survivors disagree on membership or a listed survivor is dead", name, timeout)
	}
}

// Report renders the joined error from Run/RunOpts as a per-rank
// failure report, flagging ranks that abandoned a peer after
// exhausting their retry budget (comm.ErrPeerLost). It is what
// launchers print when a distributed sort degrades instead of
// deadlocking.
func Report(err error) string {
	if err == nil {
		return "cluster: all ranks completed"
	}
	var b strings.Builder
	b.WriteString("cluster: failed ranks:")
	for _, e := range flatten(err) {
		if r, ok := comm.PeerLost(e); ok {
			fmt.Fprintf(&b, "\n  %v [gave up on peer rank %d]", e, r)
		} else {
			fmt.Fprintf(&b, "\n  %v", e)
		}
	}
	return b.String()
}

// flatten splits an errors.Join result into its members (or wraps a
// plain error in a singleton slice).
func flatten(err error) []error {
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		return u.Unwrap()
	}
	return []error{err}
}

// Gather runs fn on a cluster and collects each rank's result value,
// indexed by rank. It fails like RunOpts does.
func Gather[T any](topo Topology, opts Options, fn func(c *comm.Comm) (T, error)) ([]T, error) {
	out := make([]T, topo.Size())
	err := RunOpts(topo, opts, func(c *comm.Comm) error {
		v, err := fn(c)
		if err != nil {
			return err
		}
		out[c.Rank()] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
