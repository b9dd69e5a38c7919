// Package engine is the shared solve-orchestration layer underneath every
// front-end of the repository: the dtsched CLI, the dtexp experiment
// harness and the dtserve HTTP service all route solver executions
// through one Engine instead of wiring their own worker pools.
//
// An Engine is a fixed pool of Workers workers draining per-lane bounded
// queues, so at most Workers solves run at once, excess submissions wait
// in lane queues (subject to their contexts), and submissions beyond a
// lane's depth or delay budget are shed with an *OverloadError instead of
// queueing unboundedly. Two QoS lanes exist: interactive (the default,
// latency-sensitive) and batch (throughput work that yields to interactive
// under contention via weighted dequeue). Solves are pure CPU, so the pool
// keeps its size for the engine's whole life: a worker beyond the CPUs
// could only time-slice with the ones already running. Each worker owns,
// for its whole lifetime,
//
//   - one machsim simulator arena (machsim.NewArena), so back-to-back
//     solves rebind warm buffers instead of rebuilding simulator state, and
//   - one SA scheduler arena (core.NewSchedulerArena), so the "sa" policy
//     Resets a pooled core.Scheduler instead of constructing one per solve
//     — together killing the cold-path allocations that per-solve
//     construction used to pay.
//
// Ownership contract: the arena and scheduler never leave their worker,
// are rebound per job (Bind/Reset discard all prior state), and therefore
// never change a result — for a fixed Job the result is identical at any
// worker count, including 1. Layers above the engine (content-addressed
// caches, singleflight, wire encoding) stay above it; the engine sees only
// cold solves.
//
// Submit enqueues one job and returns a channel carrying its Item. Stream
// pipelines a batch: every job solves as soon as a worker frees, and items
// are delivered in completion order, index-tagged, so a consumer (e.g. the
// service's NDJSON batch endpoint) can forward early finishers while the
// slowest member still runs. Fan generalizes Stream to arbitrary per-index
// work for callers that layer caching between themselves and Submit.
// ParallelFor is the deterministic fan-out loop the experiment harness
// runs its studies on.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machsim"
	"repro/internal/obs"
	"repro/internal/solver"
)

// Config tunes an Engine.
type Config struct {
	// Workers is the pool size, fixed for the engine's life; <= 0 means
	// one per available CPU (GOMAXPROCS).
	Workers int
	// MaxBatch caps the jobs of one Stream (or Fan) call; <= 0 means 256.
	// The engine owns this limit so every front-end enforces it the same
	// way instead of re-checking per handler.
	MaxBatch int
	// QueueDepth bounds each lane's queue; a submission to a full lane is
	// shed with an *OverloadError. <= 0 means DefaultQueueDepth.
	QueueDepth int
	// QueueDelayTarget sheds a submission when the lane's oldest queued
	// job has already waited longer than this — the queue is not keeping
	// up, so admitting more work only manufactures timeouts. 0 disables
	// delay-based shedding (depth still bounds the queue).
	QueueDelayTarget time.Duration
	// InteractiveWeight is the weighted-dequeue ratio: when both lanes
	// hold work, workers take this many interactive jobs per batch job.
	// <= 0 means 4.
	InteractiveWeight int
}

// DefaultMaxBatch is the Stream/Fan batch cap when Config leaves it zero.
const DefaultMaxBatch = 256

// DefaultQueueDepth is the per-lane queue bound when Config leaves it zero.
const DefaultQueueDepth = 1024

const defaultInteractiveWeight = 4

// Job is one solver execution: the solver to run and its request. Index is
// an opaque caller tag replayed on the resulting Item — batch consumers
// use it to reassemble completion-order items in request order. Lane picks
// the QoS class; the zero value is LaneInteractive.
type Job struct {
	Index  int
	Lane   Lane
	Solver solver.Solver
	Req    solver.Request
}

// Item is the outcome of one Job. Exactly one of Result or Err is set.
type Item struct {
	Index  int
	Result *machsim.Result
	Err    error
}

// ErrQueueTimeout wraps the context error of a submission whose context
// ended before a worker picked the job up — the job never ran.
var ErrQueueTimeout = errors.New("engine: queued too long")

// ErrClosed reports a submission to a closed engine.
var ErrClosed = errors.New("engine: closed")

// Task states: exactly one party — a worker, the context watcher, or
// Close — wins the CAS out of taskQueued and delivers the task's Item.
const (
	taskQueued int32 = iota
	taskClaimed
	taskExpired
)

// task is one queued submission.
type task struct {
	ctx  context.Context
	job  Job
	lane Lane
	enq  time.Time
	out  chan<- Item
	// state arbitrates delivery between the dequeuing worker, the context
	// watcher, and Close (see the task-state constants).
	state atomic.Int32
	// claimed, non-nil only when a watcher is running, is closed by
	// whoever claims the task so the watcher exits promptly.
	claimed chan struct{}
}

// Engine is the worker pool. Create with New, stop with Close.
type Engine struct {
	mu     sync.Mutex
	queues [numLanes][]*task
	lanes  [numLanes]laneCounters
	rr     uint64 // weighted-dequeue cursor
	closed bool

	wake chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup

	workers     int
	maxBatch    int
	queueDepth  int
	delayTarget time.Duration
	weight      int

	busy      atomic.Int64
	completed atomic.Int64
	closeOnce sync.Once
}

// New starts an engine with the given configuration.
func New(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.InteractiveWeight <= 0 {
		cfg.InteractiveWeight = defaultInteractiveWeight
	}
	e := &Engine{
		// The wake buffer is sized so an enqueue's non-blocking send only
		// drops when enough tokens are already pending to cover every
		// queued task — a pending token always wakes a worker that then
		// drains the queues until empty, so no admitted task is stranded.
		wake:        make(chan struct{}, cfg.Workers+2*int(numLanes)*cfg.QueueDepth),
		quit:        make(chan struct{}),
		workers:     cfg.Workers,
		maxBatch:    cfg.MaxBatch,
		queueDepth:  cfg.QueueDepth,
		delayTarget: cfg.QueueDelayTarget,
		weight:      cfg.InteractiveWeight,
	}
	for l := Lane(0); l < numLanes; l++ {
		e.lanes[l].delayHist = obs.NewHistogram(obs.QueueBuckets)
	}
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// MaxBatch returns the engine's batch cap.
func (e *Engine) MaxBatch() int { return e.maxBatch }

// Submit enqueues one job on its lane and returns the channel its Item
// will arrive on (buffered, so the worker never blocks on a slow
// consumer). Submit never blocks: it returns immediately with the job
// queued, or with the Item already carrying the rejection —
// *OverloadError (matches ErrOverloaded) when the lane's depth or delay
// budget is exhausted, ErrClosed after Close. If the job's context ends
// while it is still queued the Item carries ErrQueueTimeout and the job
// never runs. Once a worker claims it, the job runs to completion under
// ctx — solvers honor its cancellation through their interrupt hooks.
func (e *Engine) Submit(ctx context.Context, job Job) <-chan Item {
	out := make(chan Item, 1)
	lane := job.Lane
	if !lane.valid() {
		lane = LaneInteractive
	}
	t := &task{ctx: ctx, job: job, lane: lane, out: out}
	if ctx.Done() != nil {
		t.claimed = make(chan struct{})
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		out <- Item{Index: job.Index, Err: ErrClosed}
		return out
	}
	now := time.Now()
	if ov := e.admitLocked(lane, now); ov != nil {
		e.mu.Unlock()
		if tr := obs.FromContext(ctx); tr != nil {
			tr.Annotate("shed", ov.Lane.String())
		}
		out <- Item{Index: job.Index, Err: ov}
		return out
	}
	t.enq = now
	e.queues[lane] = append(e.queues[lane], t)
	e.lanes[lane].submitted++
	e.mu.Unlock()

	if t.claimed != nil {
		go e.watch(t)
	}
	select {
	case e.wake <- struct{}{}:
	default:
	}
	return out
}

// admitLocked applies the lane's admission budgets and returns the
// rejection (counting it as shed) or nil to admit.
func (e *Engine) admitLocked(lane Lane, now time.Time) *OverloadError {
	q := e.queues[lane]
	var headAge time.Duration
	if len(q) > 0 {
		headAge = now.Sub(q[0].enq)
	}
	target := e.delayTarget
	overDepth := len(q) >= e.queueDepth
	overDelay := target > 0 && headAge > target
	if !overDepth && !overDelay {
		return nil
	}
	e.lanes[lane].shed++
	retry := headAge
	if target > retry {
		retry = target
	}
	if retry < time.Second {
		retry = time.Second
	}
	return &OverloadError{Lane: lane, Queued: len(q), QueueDelay: headAge, RetryAfter: retry}
}

// watch delivers ErrQueueTimeout if the task's context ends while it is
// still queued; it exits as soon as anyone claims the task.
func (e *Engine) watch(t *task) {
	select {
	case <-t.ctx.Done():
		if t.state.CompareAndSwap(taskQueued, taskExpired) {
			e.mu.Lock()
			e.lanes[t.lane].expired++
			e.mu.Unlock()
			t.out <- Item{Index: t.job.Index, Err: fmt.Errorf("%w: %w", ErrQueueTimeout, t.ctx.Err())}
		}
	case <-t.claimed:
	}
}

func (e *Engine) worker() {
	defer e.wg.Done()
	w := &Worker{}
	for {
		if t := e.next(); t != nil {
			e.runTask(w, t)
			continue
		}
		select {
		case <-e.wake:
		case <-e.quit:
			return
		}
	}
}

// next claims the next runnable task across the lanes (weighted dequeue,
// skipping expired tombstones) or returns nil when every queue is empty.
func (e *Engine) next() *task {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		lane := e.pickLaneLocked()
		if lane < 0 {
			return nil
		}
		q := e.queues[lane]
		t := q[0]
		q[0] = nil
		e.queues[lane] = q[1:]
		if !t.state.CompareAndSwap(taskQueued, taskClaimed) {
			continue // the watcher already answered this one
		}
		if t.claimed != nil {
			close(t.claimed)
		}
		e.lanes[lane].observeDelay(time.Since(t.enq))
		return t
	}
}

// pickLaneLocked chooses which non-empty lane to dequeue from: the only
// non-empty one outright, or — under contention — InteractiveWeight
// interactive jobs per batch job, so the batch lane saturating cannot
// starve interactive traffic and interactive bursts cannot starve batch
// either.
func (e *Engine) pickLaneLocked() Lane {
	ni := len(e.queues[LaneInteractive])
	nb := len(e.queues[LaneBatch])
	switch {
	case ni == 0 && nb == 0:
		return -1
	case nb == 0:
		return LaneInteractive
	case ni == 0:
		return LaneBatch
	}
	e.rr++
	if e.rr%uint64(e.weight+1) == 0 {
		return LaneBatch
	}
	return LaneInteractive
}

// runTask executes one claimed task, or answers it with ErrQueueTimeout
// without running when its context is already dead.
func (e *Engine) runTask(w *Worker, t *task) {
	if t.ctx.Err() != nil {
		e.mu.Lock()
		e.lanes[t.lane].expired++
		e.mu.Unlock()
		t.out <- Item{Index: t.job.Index, Err: fmt.Errorf("%w: %w", ErrQueueTimeout, t.ctx.Err())}
		return
	}
	tr := obs.FromContext(t.ctx)
	if tr != nil {
		pickup := time.Now()
		tr.Observe(obs.StageQueue, t.enq, pickup.Sub(t.enq), obs.KV{Key: "lane", Val: t.lane.String()})
	}
	e.busy.Add(1)
	start := time.Now()
	item := w.run(t.ctx, t.job)
	e.busy.Add(-1)
	if tr != nil {
		tr.Observe(obs.StageSolve, start, time.Since(start), obs.KV{Key: "solver", Val: t.job.Solver.Name()})
	}
	e.completed.Add(1)
	e.mu.Lock()
	e.lanes[t.lane].completed++
	e.mu.Unlock()
	t.out <- item // out is buffered; never blocks the worker
}

// Solve is the single-job convenience wrapper around Submit.
func (e *Engine) Solve(ctx context.Context, job Job) (*machsim.Result, error) {
	item := <-e.Submit(ctx, job)
	return item.Result, item.Err
}

// Stream solves a batch with the jobs pipelined across the pool: each job
// starts as soon as a worker frees, and its Item is delivered the moment
// it completes — completion order, index-tagged — so consumers can forward
// early finishers while the slowest job still runs. The channel closes
// after the last item. Batches beyond MaxBatch are rejected before any
// job runs.
func (e *Engine) Stream(ctx context.Context, jobs []Job) (<-chan Item, error) {
	return Fan(len(jobs), e.maxBatch, func(i int) Item {
		return <-e.Submit(ctx, jobs[i])
	})
}

// Fan runs fn(i) for every i in [0, n) concurrently — each call on its own
// goroutine — and delivers the results in completion order on the returned
// channel, which closes after the n-th. limit rejects oversized fan-outs
// (an Engine's MaxBatch); n <= 0 yields an empty closed channel. Callers
// whose per-index work is not a bare Job — e.g. a cache consult that only
// sometimes reaches Submit — use Fan directly and inherit the same
// pipelining and the same engine-owned batch cap as Stream. The channel
// is buffered for all n results, so producers never block on a consumer
// that stopped reading.
func Fan[T any](n, limit int, fn func(i int) T) (<-chan T, error) {
	if n > limit {
		return nil, fmt.Errorf("engine: batch of %d exceeds the limit of %d", n, limit)
	}
	out := make(chan T, max(n, 0))
	if n <= 0 {
		close(out)
		return out, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out <- fn(i)
		}(i)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out, nil
}

// Close stops the workers after their current jobs; queued submissions
// fail with ErrClosed. Close is idempotent.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.mu.Lock()
		e.closed = true
		var pending []*task
		for l := range e.queues {
			pending = append(pending, e.queues[l]...)
			e.queues[l] = nil
		}
		e.mu.Unlock()
		close(e.quit)
		for _, t := range pending {
			if t.state.CompareAndSwap(taskQueued, taskClaimed) {
				if t.claimed != nil {
					close(t.claimed)
				}
				t.out <- Item{Index: t.job.Index, Err: ErrClosed}
			}
		}
	})
	e.wg.Wait()
}

// Stats is a point-in-time snapshot of the engine counters.
type Stats struct {
	// Workers is the pool size.
	Workers int `json:"workers"`
	// Busy is the number of workers currently running a job.
	Busy int64 `json:"busy"`
	// Completed counts jobs run to completion across all lanes.
	Completed int64 `json:"completed"`
	// Lanes holds per-lane queue and admission counters, keyed by lane
	// name ("interactive", "batch").
	Lanes map[string]LaneStats `json:"lanes"`
}

// Stats returns the current counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	lanes := make(map[string]LaneStats, numLanes)
	for l := Lane(0); l < numLanes; l++ {
		c := e.lanes[l]
		lanes[l.String()] = LaneStats{
			Queued:             len(e.queues[l]),
			Submitted:          c.submitted,
			Completed:          c.completed,
			Shed:               c.shed,
			Expired:            c.expired,
			QueueDelayEWMA:     c.delayEWMA,
			MaxQueueDelayNS:    c.maxDelay.Nanoseconds(),
			QueueDelayTargetNS: int64(e.delayTarget),
			QueueDelay:         c.delayHist.Snapshot(),
		}
	}
	return Stats{
		Workers:   e.workers,
		Busy:      e.busy.Load(),
		Completed: e.completed.Load(),
		Lanes:     lanes,
	}
}
