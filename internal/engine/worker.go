package engine

import (
	"context"

	"repro/internal/core"
	"repro/internal/machsim"
)

// Worker is the per-goroutine solve workspace: a machsim simulator arena
// and an SA scheduler arena, both created lazily on first use and reused
// for the worker's whole lifetime. Rebinding (Bind/Reset) discards all
// prior state, so worker placement never changes a result; a Worker must
// not be shared by concurrent solves.
type Worker struct {
	arena *machsim.Simulator
	sched *core.Scheduler
}

// Arena returns the worker's simulator arena, creating it on first use.
func (w *Worker) Arena() *machsim.Simulator {
	if w.arena == nil {
		w.arena = machsim.NewArena()
	}
	return w.arena
}

// Scheduler returns the worker's SA scheduler arena, creating it on first
// use. Callers Reset it to their problem before use.
func (w *Worker) Scheduler() *core.Scheduler {
	if w.sched == nil {
		w.sched = core.NewSchedulerArena()
	}
	return w.sched
}

// run executes one job on this worker, handing the solver the worker's
// arenas. The request is copied, so the caller's Request is never
// mutated.
func (w *Worker) run(ctx context.Context, job Job) Item {
	req := job.Req
	req.Arena = w.Arena()
	req.Sched = w.Scheduler()
	res, err := job.Solver.Solve(ctx, req)
	return Item{Result: res, Err: err}
}
