// Package engine turns the one-launch-one-sort stack into a persistent
// job service: an Engine owns a long-lived fabric (the transports of an
// in-process world, or one rank's end of a TCP world), keeps a pool of
// rank worker goroutines warm across jobs, and multiplexes submitted
// jobs over the shared fabric — each job on its own job-scoped
// communicator (comm.Attach under a per-job name, so concurrent jobs'
// tags can never cross-talk), its own metrics scope, and its own slice
// of the shared memory budget.
//
// The life cycle of a job:
//
//	Submit   → queued, a metrics scope and (if Footprint > 0) a
//	           per-job gauge are allocated
//	admitted → the engine reserved the declared footprint on the
//	           shared gauge; one task per rank is dispatched to the
//	           warm worker pool
//	running  → every rank executes the job body collectively on the
//	           job's communicator
//	done     → footprint released, Wait unblocks, the next queued job
//	           is considered
//
// Admission is strict FIFO over declared footprints: a job starts only
// when the shared gauge can hold its whole declaration, so two
// concurrent sorts cannot OOM each other — the service analogue of the
// paper's per-rank memory budget.
//
// Failure isolation: when any rank of a job errors, the engine cancels
// the job — sibling ranks parked in the job's collectives are unblocked
// with comm.ErrCanceled via the fabric's cancel/interrupt hooks — but
// the fabric itself stays up and later jobs run untouched. A failed or
// even fault-killed job cannot poison the engine.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sdssort/internal/checkpoint"
	"sdssort/internal/comm"
	"sdssort/internal/memlimit"
	"sdssort/internal/metrics"
	"sdssort/internal/trace"
)

// Fabric is what an engine multiplexes over: a set of per-rank
// transports that outlives any single job. *comm.World implements it;
// anything shaped like a world can.
type Fabric interface {
	// Size is the number of ranks in the fabric.
	Size() int
	// Transport returns rank r's endpoint. Called once per rank at
	// engine construction; the endpoints live until the fabric closes.
	Transport(rank int) comm.Transport
}

// interrupter is the optional fabric hook job cancellation needs: wake
// parked receives so they re-check their cancel channels.
type interrupter interface{ Interrupt() }

// Options configures an engine.
type Options struct {
	// Mem, when non-nil, is the shared admission gauge: a job's
	// declared Footprint is reserved here before it may start and
	// released when it completes, so the sum of running jobs' declared
	// footprints never exceeds the budget. Nil disables admission
	// control (every job starts immediately).
	Mem *memlimit.Gauge
	// WrapTransport, when non-nil, decorates each rank's transport once
	// at engine construction — the fabric-level hook (simnet cost
	// models, etc.). Per-job decoration goes on JobSpec.WrapTransport.
	WrapTransport func(comm.Transport) comm.Transport
	// Trace, when non-nil, receives engine life-cycle events at rank -1:
	// engine.submit / engine.admit / engine.done.
	Trace trace.Tracer
	// Name prefixes job communicator names (default "world"). All
	// engines over one fabric — in particular every process of a TCP
	// world — must agree on it, epoch suffix included.
	Name string
}

// ErrEngineClosed is returned by Submit after Close has begun.
var ErrEngineClosed = errors.New("engine: closed")

// ErrDeadline is the cause Job.Wait returns when a per-job deadline
// cancelled the job.
var ErrDeadline = errors.New("engine: job deadline exceeded")

// PanicError is a rank panic converted to a job error, the engine
// analogue of cluster.PanicError: a crashed rank fails its job, not the
// process or the fabric.
type PanicError struct {
	Rank  int
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: rank %d: panic: %v", e.Rank, e.Value)
}

// JobCommName is the naming convention for job-scoped communicators:
// job id under the world name. Every participant of a multiplexed
// fabric — the in-process engine and each sdsnode -serve process —
// derives the same name for the same job, which is what keeps the job's
// message context globally agreed.
func JobCommName(world string, id int) string {
	return fmt.Sprintf("%s/job%d", world, id)
}

// Engine multiplexes jobs over a long-lived fabric. Build one with New,
// submit with Submit (or sortjob.Submit), and Close it to drain.
type Engine struct {
	opts    Options
	fab     Fabric
	trs     []comm.Transport // per-rank, wrapped once, warm for life
	workers []*rankWorkers
	reg     *metrics.JobRegistry
	tr      trace.Tracer
	spawned atomic.Int64

	// life-cycle counters behind Stats(), read live by telemetry.
	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	degraded  atomic.Int64 // jobs that shrank onto survivors instead of failing
	admitWait atomic.Int64 // total queued→admitted wait, nanoseconds

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*Job // submitted, not yet admitted (FIFO)
	active int    // admitted or queued, not yet done
	closed bool
}

// New builds an engine over fab. The fabric's transports are fetched
// (and fabric-wrapped) once, here — jobs reuse them, which is exactly
// the warm-fabric saving: no re-dial, no handshake, no respawn per job.
func New(fab Fabric, opts Options) *Engine {
	if opts.Name == "" {
		opts.Name = "world"
	}
	e := &Engine{
		opts: opts,
		fab:  fab,
		trs:  make([]comm.Transport, fab.Size()),
		reg:  metrics.NewJobRegistry(),
		tr:   opts.Trace,
	}
	if e.tr == nil {
		e.tr = trace.Nop{}
	}
	e.cond = sync.NewCond(&e.mu)
	e.workers = make([]*rankWorkers, fab.Size())
	for r := range e.trs {
		tr := fab.Transport(r)
		if opts.WrapTransport != nil {
			tr = opts.WrapTransport(tr)
		}
		e.trs[r] = tr
		e.workers[r] = &rankWorkers{}
	}
	return e
}

// Size returns the fabric's rank count.
func (e *Engine) Size() int { return len(e.trs) }

// Registry returns the engine's per-job metrics registry.
func (e *Engine) Registry() *metrics.JobRegistry { return e.reg }

// WorkerSpawns reports how many rank worker goroutines the engine has
// ever started. Back-to-back jobs reuse parked workers, so after any
// number of sequential jobs this is exactly Size() — the "no goroutine
// respawn" claim, as a counter.
func (e *Engine) WorkerSpawns() int64 { return e.spawned.Load() }

// Stats is a point-in-time view of the engine's job life cycle, the
// payload behind the telemetry plane's engine gauges.
type Stats struct {
	// Submitted / Completed / Failed are monotonic job counts;
	// Completed covers successful jobs only. Degraded counts jobs that
	// lost ranks but finished on the survivors (they also count as
	// Completed when their degraded attempt succeeds).
	Submitted, Completed, Failed, Degraded int64
	// Queued jobs await admission; Running jobs hold their footprint.
	Queued, Running int
	// WorkersAlive / WorkersBusy sum the warm pools across ranks.
	WorkersAlive, WorkersBusy int
	// WorkerSpawns is the lifetime worker-goroutine count.
	WorkerSpawns int64
	// AdmissionWait is the cumulative time admitted jobs spent queued —
	// the admission-blocked time the memory budget imposed.
	AdmissionWait time.Duration
}

// Stats returns the engine's current life-cycle counters. Safe to call
// concurrently with job execution; the snapshot is internally
// consistent for the queue/active counts but the worker sums are read
// pool by pool.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	queued := len(e.queue)
	running := e.active - queued
	e.mu.Unlock()
	s := Stats{
		Submitted:     e.submitted.Load(),
		Completed:     e.completed.Load(),
		Failed:        e.failed.Load(),
		Degraded:      e.degraded.Load(),
		Queued:        queued,
		Running:       running,
		WorkerSpawns:  e.spawned.Load(),
		AdmissionWait: time.Duration(e.admitWait.Load()),
	}
	for _, w := range e.workers {
		w.mu.Lock()
		s.WorkersAlive += w.alive
		s.WorkersBusy += w.busy
		w.mu.Unlock()
	}
	return s
}

// Env is what the engine hands a job body on each rank: the job's
// metrics scope and its slice of the memory budget. The communicator is
// passed separately, already scoped to the job.
type Env struct {
	// Metrics is the job's isolated metrics scope; bodies should time
	// against Metrics.Timer(rank) and count against Metrics.Exchange.
	Metrics *metrics.JobMetrics
	// Mem is the job's private gauge, budgeted at the declared
	// footprint (nil when Footprint was 0). Sort bodies pass it as
	// core.Options.Mem so the job's own reservations are bounded by
	// what admission granted it. A degraded re-dispatch gets a fresh
	// gauge grown for the larger per-survivor share.
	Mem *memlimit.Gauge
	// Span is the job's ambient span scope: bodies pass it as
	// core.Options.Span (directly or via algo.Options.Core) so every
	// span a sort opens nests under the job's root span and carries the
	// job's trace/job labels.
	Span trace.Scope
	// Degraded is set on a shrink re-dispatch: the body runs on the
	// survivors only and should resume from Resume instead of its input.
	Degraded bool
	// Resume is the redistributed cut a degraded body resumes from.
	Resume checkpoint.Cut
	// Lost holds the original ranks that died (Degraded only).
	Lost []int
}

// JobSpec describes one job.
type JobSpec struct {
	// Name labels the job in metrics and traces ("job<id>" if empty).
	Name string
	// Footprint is the job's declared peak memory in bytes, reserved on
	// the engine's shared gauge for the job's whole run. 0 bypasses
	// admission control for this job.
	Footprint int64
	// Deadline, when positive, bounds the job's wall time from
	// admission: past it the job is cancelled and Wait returns
	// ErrDeadline. It is per job — queue time does not count, and other
	// jobs are unaffected.
	Deadline time.Duration
	// WrapTransport, when non-nil, decorates each rank's transport for
	// this job only — the hook the fault-injection soak uses to kill
	// one job without poisoning the fabric.
	WrapTransport func(comm.Transport) comm.Transport
	// Shrink, when non-nil, lets a job that lost ranks finish degraded
	// instead of failing: the survivors are re-dispatched once, on a
	// group communicator spanning exactly them, resuming from the cut
	// Shrink.Redistribute rebuilds. See JobShrink.
	Shrink *JobShrink
	// Body runs collectively: every rank calls it with the job-scoped
	// communicator. An error on any rank cancels the whole job. On a
	// degraded re-dispatch rank is the survivor's rank in the shrunken
	// world and env.Degraded/env.Resume describe the resume.
	Body func(env Env, rank int, c *comm.Comm) error
}

// JobShrink is a job's degraded-mode policy, the per-job analogue of
// cluster.ShrinkPolicy: when a job fails and its lost ranks can be
// identified from the rank errors, the engine redistributes the job's
// checkpoints over the survivors and re-dispatches the body on them —
// the job is marked degraded, not failed, and the fabric keeps every
// other job untouched. The retry happens at most once: a second loss
// during the degraded attempt fails the job for real (resubmission is
// the client's relaunch path).
type JobShrink struct {
	// MinRanks floors the degraded world size; values below 2 are
	// treated as 2.
	MinRanks int
	// Redistribute rebuilds the job's checkpoint cut for the surviving
	// world (same contract as cluster.ShrinkPolicy.Redistribute).
	// Returning an error or a PhaseNone cut aborts the degraded retry.
	Redistribute func(lost []int, oldSize, newEpoch int) (checkpoint.Cut, error)
}

// State is a job's position in its life cycle.
type State int32

const (
	// Queued: submitted, waiting for its footprint to fit.
	Queued State = iota
	// Running: admitted; rank bodies are executing.
	Running
	// Done: finished; Wait will not block and Err is final.
	Done
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Job is a submitted job's handle.
type Job struct {
	e    *Engine
	spec JobSpec
	id   int

	metrics *metrics.JobMetrics
	mem     *memlimit.Gauge // per-job budget, nil without a footprint
	span    *trace.Span     // job root span, opened at admission (rank -1)

	state     atomic.Int32
	remaining atomic.Int32
	degraded  atomic.Bool // the job survived a lost rank by shrinking
	done      chan struct{}
	queuedAt  time.Time
	start     time.Time
	dl        *time.Timer

	mu           sync.Mutex
	cancel       chan struct{} // current attempt's cancel; replaced on a degraded retry
	cancelClosed bool
	errs         []error // per-rank body errors (shrunken-world indexed after a retry)
	cause        error   // abort cause (deadline, explicit cancel)
	err          error   // final, set before done closes
	lost         []int   // original ranks shed by the degraded retry
	resume       checkpoint.Cut
	extra        int64 // extra shared-gauge bytes the degraded attempt holds
}

// ID returns the engine-assigned job id.
func (j *Job) ID() int { return j.id }

// Metrics returns the job's isolated metrics scope.
func (j *Job) Metrics() *metrics.JobMetrics { return j.metrics }

// State returns the job's current life-cycle state.
func (j *Job) State() State { return State(j.state.Load()) }

// Degraded reports whether the job shrank onto its survivors after
// losing ranks. It may be true while the job is still Running (the
// degraded attempt) and stays true once Done — a degraded job that
// finishes cleanly counts as completed, not failed.
func (j *Job) Degraded() bool { return j.degraded.Load() }

// Lost returns the original ranks a degraded job shed (nil otherwise).
func (j *Job) Lost() []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]int(nil), j.lost...)
}

// Done returns a channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes and returns its error.
func (j *Job) Wait() error {
	<-j.done
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Cancel aborts the job: parked collectives unblock with
// comm.ErrCanceled and Wait returns a cancellation error. Cancelling a
// finished job is a no-op.
func (j *Job) Cancel() {
	j.abort(fmt.Errorf("engine: job %d cancelled: %w", j.id, comm.ErrCanceled))
}

// abort records cause (first writer wins), closes the current
// attempt's cancel channel and nudges the fabric so parked receives
// notice. The channel is mu-guarded because a degraded retry replaces
// it, and the deadline timer may fire concurrently with that swap.
func (j *Job) abort(cause error) {
	j.mu.Lock()
	if j.cause == nil {
		j.cause = cause
	}
	if !j.cancelClosed {
		close(j.cancel)
		j.cancelClosed = true
	}
	j.mu.Unlock()
	j.e.interrupt()
}

// cascade closes the cancel channel without recording a cause — used
// when a rank error is already the cause.
func (j *Job) cascade() {
	j.mu.Lock()
	if !j.cancelClosed {
		close(j.cancel)
		j.cancelClosed = true
	}
	j.mu.Unlock()
	j.e.interrupt()
}

// finalErr distils the job's outcome: rank errors that are not mere
// cancellation cascades win; otherwise the abort cause (deadline,
// Cancel); otherwise success.
func (j *Job) finalErr() error {
	var real []error
	for r, err := range j.errs {
		if err != nil && !errors.Is(err, comm.ErrCanceled) {
			real = append(real, fmt.Errorf("rank %d: %w", r, err))
		}
	}
	if len(real) > 0 {
		return errors.Join(real...)
	}
	if j.cause != nil {
		return j.cause
	}
	// All errors (if any) were pure cancellations with no recorded
	// cause — surface one rather than claiming success.
	for r, err := range j.errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// Submit enqueues a job and starts it as soon as admission allows.
func (e *Engine) Submit(spec JobSpec) (*Job, error) {
	if spec.Body == nil {
		return nil, errors.New("engine: JobSpec.Body is required")
	}
	if spec.Footprint < 0 {
		return nil, fmt.Errorf("engine: negative footprint %d", spec.Footprint)
	}
	if b := e.opts.Mem.Budget(); b > 0 && spec.Footprint > b {
		return nil, fmt.Errorf("engine: footprint %d exceeds the engine budget %d — the job could never be admitted", spec.Footprint, b)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrEngineClosed
	}
	size := e.Size()
	j := &Job{
		e:      e,
		spec:   spec,
		cancel: make(chan struct{}),
		done:   make(chan struct{}),
		errs:   make([]error, size),
	}
	j.metrics = e.reg.NewJob(spec.Name, size)
	j.id = j.metrics.ID
	if spec.Footprint > 0 {
		j.mem = memlimit.New(spec.Footprint)
	}
	j.remaining.Store(int32(size))
	j.queuedAt = time.Now()
	e.submitted.Add(1)
	e.active++
	e.queue = append(e.queue, j)
	e.tr.Emit(-1, "engine.submit", map[string]any{
		"job": j.id, "name": j.metrics.Name, "footprint": spec.Footprint,
	})
	e.scheduleLocked()
	return j, nil
}

// scheduleLocked admits queued jobs in strict FIFO order while the head
// job's footprint fits on the shared gauge. Strict FIFO means a large
// queued job is never starved by small ones slipping past it.
func (e *Engine) scheduleLocked() {
	for len(e.queue) > 0 {
		j := e.queue[0]
		if j.spec.Footprint > 0 {
			if err := e.opts.Mem.Reserve(j.spec.Footprint); err != nil {
				return // head does not fit yet; completion will retry
			}
		}
		e.queue = e.queue[1:]
		e.startLocked(j)
	}
}

// startLocked dispatches an admitted job's rank tasks to the warm pool.
func (e *Engine) startLocked(j *Job) {
	j.start = time.Now()
	e.admitWait.Add(j.start.Sub(j.queuedAt).Nanoseconds())
	j.state.Store(int32(Running))
	if j.spec.Deadline > 0 {
		j.dl = time.AfterFunc(j.spec.Deadline, func() {
			j.abort(fmt.Errorf("%w (%v)", ErrDeadline, j.spec.Deadline))
		})
	}
	e.tr.Emit(-1, "engine.admit", map[string]any{
		"job": j.id, "name": j.metrics.Name, "footprint": j.spec.Footprint,
	})
	// The job's root span: admission to completion, at rank -1 (the
	// engine's control plane — no rank owns a job). Rank bodies nest
	// their sort spans under it through Env.Span.
	j.span = trace.StartSpan(e.tr, -1, trace.Scope{
		Trace: JobCommName(e.opts.Name, j.id), Job: j.metrics.Name,
	}, "job", map[string]any{
		"job_id": j.id, "footprint": j.spec.Footprint,
	})
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	for r := 0; r < e.Size(); r++ {
		rank := r
		e.workers[rank].dispatch(e, workerTask{
			work: func() error { return e.runRank(j, rank, cancel) },
			done: func(err error) { j.rankDone(rank, err) },
		})
	}
}

// runRank executes one rank's share of a job on a job-scoped
// communicator, converting panics to errors so a crashed rank fails its
// job instead of the process.
func (e *Engine) runRank(j *Job, rank int, cancel <-chan struct{}) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Rank: rank, Value: p}
		}
	}()
	tr := e.trs[rank]
	if j.spec.WrapTransport != nil {
		tr = j.spec.WrapTransport(tr)
	}
	jt := &jobTransport{Transport: tr, cancel: cancel}
	c := comm.Attach(jt, JobCommName(e.opts.Name, j.id))
	return j.spec.Body(Env{Metrics: j.metrics, Mem: j.mem, Span: j.span.Scope()}, rank, c)
}

// runRankShrunk is runRank for one survivor of a degraded retry: the
// communicator is a group over exactly the survivors' fabric
// transports, under a retry-suffixed name so frames of the failed
// full-size attempt can never surface in it. worldRank addresses the
// fabric; the body sees the survivor's shrunken-world rank.
func (e *Engine) runRankShrunk(j *Job, worldRank int, survivors []int, cancel <-chan struct{}) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Rank: worldRank, Value: p}
		}
	}()
	tr := e.trs[worldRank]
	if j.spec.WrapTransport != nil {
		tr = j.spec.WrapTransport(tr)
	}
	jt := &jobTransport{Transport: tr, cancel: cancel}
	c, err := comm.AttachGroup(jt, JobCommName(e.opts.Name, j.id)+"@shrunk", survivors)
	if err != nil {
		return err
	}
	env := Env{
		Metrics:  j.metrics,
		Mem:      j.mem,
		Span:     j.span.Scope(),
		Degraded: true,
		Resume:   j.resume,
		Lost:     append([]int(nil), j.lost...),
	}
	return j.spec.Body(env, c.Rank(), c)
}

// rankDone records a rank's outcome; the last rank finalises the job.
func (j *Job) rankDone(rank int, err error) {
	if err != nil {
		j.mu.Lock()
		j.errs[rank] = err
		j.mu.Unlock()
		// Unblock the sibling ranks parked in this job's collectives.
		// The fabric stays up; only this job's context is abandoned.
		j.cascade()
	}
	if j.remaining.Add(-1) == 0 {
		j.e.jobDone(j)
	}
}

// jobDone finalises a job — unless a degraded retry adopts it: stop
// its deadline, compute the final error, release the admission
// reservation and let the queue advance.
func (e *Engine) jobDone(j *Job) {
	j.mu.Lock()
	ferr := j.finalErr()
	j.mu.Unlock()
	if ferr != nil && e.tryDegrade(j, ferr) {
		return // the job continues, shrunken; this was not its end
	}
	if j.dl != nil {
		j.dl.Stop()
	}
	j.metrics.SetElapsed(time.Since(j.start))
	j.mu.Lock()
	j.err = ferr
	err := j.err
	j.mu.Unlock()
	j.state.Store(int32(Done))
	if err != nil {
		e.failed.Add(1)
	} else {
		e.completed.Add(1)
	}
	// Release before unblocking Wait: a caller that sees the job done
	// must see its footprint back in the gauge.
	e.mu.Lock()
	if j.spec.Footprint > 0 {
		e.opts.Mem.Release(j.spec.Footprint + j.extra)
	}
	e.active--
	e.scheduleLocked()
	e.cond.Broadcast()
	e.mu.Unlock()
	close(j.done)
	ev := map[string]any{
		"job": j.id, "name": j.metrics.Name,
		"elapsed": j.metrics.Elapsed().String(),
	}
	if j.Degraded() {
		ev["degraded"] = true
	}
	if err != nil {
		ev["error"] = err.Error()
	}
	j.span.End(ev)
	e.tr.Emit(-1, "engine.done", ev)
}

// jobLostRanks extracts the dead ranks a failed attempt's per-rank
// errors identify — the ranks ErrPeerLost names and the ranks that
// panicked. Survivors cancelled by the cascade carry no rank identity
// and are not counted. Indices are ranks of the attempt's own world.
func jobLostRanks(errs []error, size int) []int {
	seen := make(map[int]bool)
	var out []int
	add := func(r int) {
		if r >= 0 && r < size && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, err := range errs {
		if err == nil {
			continue
		}
		if r, ok := comm.PeerLost(err); ok {
			add(r)
		}
		var pe *PanicError
		if errors.As(err, &pe) {
			add(pe.Rank)
		}
	}
	sort.Ints(out)
	return out
}

// tryDegrade decides whether a failed job may continue shrunken and, if
// so, redistributes its checkpoints, re-reserves the grown per-survivor
// footprint and re-dispatches the body on the survivors. Returns false
// when the job must fail for real: no shrink policy, a retry already
// spent, unidentifiable losses, too few survivors, redistribution
// failure, or no footprint headroom.
func (e *Engine) tryDegrade(j *Job, ferr error) bool {
	sh := j.spec.Shrink
	if sh == nil || sh.Redistribute == nil || j.degraded.Load() {
		return false
	}
	size := e.Size()
	j.mu.Lock()
	lost := jobLostRanks(j.errs, size)
	j.mu.Unlock()
	minRanks := sh.MinRanks
	if minRanks < 2 {
		minRanks = 2
	}
	if len(lost) == 0 || size-len(lost) < minRanks {
		return false
	}
	cut, err := sh.Redistribute(lost, size, 1)
	if err != nil || cut.Phase == checkpoint.PhaseNone {
		reason := "no consistent cut"
		if err != nil {
			reason = err.Error()
		}
		e.tr.Emit(-1, "engine.shrink_fallback", map[string]any{
			"job": j.id, "name": j.metrics.Name, "lost": lost, "reason": reason,
		})
		return false
	}
	survivors := make([]int, 0, size-len(lost))
	dead := make(map[int]bool, len(lost))
	for _, r := range lost {
		dead[r] = true
	}
	for r := 0; r < size; r++ {
		if !dead[r] {
			survivors = append(survivors, r)
		}
	}
	// Each survivor's share of the job grows by roughly p/(p−k); grow
	// the admission reservation and the job's private budget to match,
	// or give up if the shared gauge cannot hold the difference.
	var extra int64
	if j.spec.Footprint > 0 {
		extra = j.spec.Footprint * int64(len(lost)) / int64(len(survivors))
		if extra > 0 {
			if err := e.opts.Mem.Reserve(extra); err != nil {
				e.tr.Emit(-1, "engine.shrink_fallback", map[string]any{
					"job": j.id, "name": j.metrics.Name, "lost": lost,
					"reason": fmt.Sprintf("no footprint headroom: %v", err),
				})
				return false
			}
		}
		j.mem = memlimit.New(j.spec.Footprint + extra)
	}
	j.mu.Lock()
	j.extra = extra
	j.lost = lost
	j.resume = cut
	j.errs = make([]error, len(survivors))
	j.cause = nil
	j.cancel = make(chan struct{})
	j.cancelClosed = false
	cancel := j.cancel
	j.mu.Unlock()
	j.degraded.Store(true)
	j.remaining.Store(int32(len(survivors)))
	e.degraded.Add(1)
	e.tr.Emit(-1, "engine.degraded", map[string]any{
		"job": j.id, "name": j.metrics.Name, "lost": lost,
		"world": len(survivors), "resume_epoch": cut.Epoch, "resume_phase": cut.Phase.String(),
		"error": ferr.Error(),
	})
	for i, wr := range survivors {
		idx, worldRank := i, wr
		e.workers[worldRank].dispatch(e, workerTask{
			work: func() error { return e.runRankShrunk(j, worldRank, survivors, cancel) },
			done: func(err error) { j.rankDone(idx, err) },
		})
	}
	return true
}

// interrupt nudges the fabric so parked receives re-check cancellation.
func (e *Engine) interrupt() {
	if in, ok := e.fab.(interrupter); ok {
		in.Interrupt()
	}
}

// Close drains the engine: submissions are rejected from now on, every
// queued and running job runs to completion, and the warm workers are
// released. The fabric is NOT closed — the engine never owned it.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		for e.active > 0 {
			e.cond.Wait()
		}
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for e.active > 0 {
		e.cond.Wait()
	}
	for _, w := range e.workers {
		w.close()
	}
	e.mu.Unlock()
	return nil
}

// workerTask is one rank's share of one job, split so the pool can
// finish its own bookkeeping between the work and the completion
// callback: done fires only after the worker has marked itself free,
// which is what makes "a job completed ⇒ its workers are reusable" hold
// without races — a Submit issued the instant Wait returns reuses the
// pool instead of spawning.
type workerTask struct {
	work func() error
	done func(error)
}

// rankWorkers is one rank's warm worker pool. The first job spawns a
// worker; later jobs reuse it, and the pool only grows while jobs
// genuinely overlap (more queued tasks than non-busy workers). Parked
// workers cost nothing but a goroutine.
type rankWorkers struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []workerTask
	alive  int // worker goroutines in the loop
	busy   int // workers currently inside task.work
	closed bool
}

// dispatch enqueues a task, spawning a worker only when every alive
// worker is busy with other work (jobs overlap, or first use).
func (w *rankWorkers) dispatch(e *Engine, t workerTask) {
	w.mu.Lock()
	if w.cond == nil {
		w.cond = sync.NewCond(&w.mu)
	}
	w.queue = append(w.queue, t)
	if len(w.queue) > w.alive-w.busy {
		w.alive++
		e.spawned.Add(1)
		go w.loop()
	} else {
		w.cond.Signal()
	}
	w.mu.Unlock()
}

func (w *rankWorkers) loop() {
	w.mu.Lock()
	for {
		for len(w.queue) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.queue) == 0 { // closed and drained
			w.alive--
			w.mu.Unlock()
			return
		}
		t := w.queue[0]
		w.queue = w.queue[1:]
		w.busy++
		w.mu.Unlock()
		err := t.work()
		w.mu.Lock()
		w.busy--
		w.mu.Unlock()
		// The completion callback runs with this worker already free:
		// whatever it unblocks (Wait, the scheduler) may dispatch here
		// again immediately and find the pool reusable.
		t.done(err)
		w.mu.Lock()
	}
}

func (w *rankWorkers) close() {
	w.mu.Lock()
	w.closed = true
	if w.cond != nil {
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

// jobTransport scopes a rank's transport to one job: once the job's
// cancel channel closes, sends fail fast and receives abandon their
// wait with comm.ErrCanceled — without consuming messages when the
// underlying transport is cancellation-aware. This is what lets a
// failed job's surviving ranks escape its collectives while the fabric
// keeps serving every other job.
type jobTransport struct {
	comm.Transport
	cancel <-chan struct{}
}

func (t *jobTransport) canceled() error {
	select {
	case <-t.cancel:
		return fmt.Errorf("engine: job aborted: %w", comm.ErrCanceled)
	default:
		return nil
	}
}

func (t *jobTransport) Send(dst int, ctx uint64, tag int32, data []byte) error {
	if err := t.canceled(); err != nil {
		return err
	}
	return t.Transport.Send(dst, ctx, tag, data)
}

func (t *jobTransport) Recv(src int, ctx uint64, tag int32) ([]byte, error) {
	if err := t.canceled(); err != nil {
		return nil, err
	}
	if ct, ok := t.Transport.(comm.CancelableTransport); ok {
		return ct.RecvCancel(src, ctx, tag, t.cancel)
	}
	// Fallback for decorated transports (fault injectors, cost models)
	// that cannot abandon a wait in place: park the real receive on a
	// goroutine and walk away on cancellation. The abandoned receive
	// can only ever consume a message of this job's own context, which
	// nobody will look at again.
	type res struct {
		data []byte
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		data, err := t.Transport.Recv(src, ctx, tag)
		ch <- res{data, err}
	}()
	select {
	case r := <-ch:
		return r.data, r.err
	case <-t.cancel:
		return nil, fmt.Errorf("engine: job aborted: %w", comm.ErrCanceled)
	}
}
