package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machsim"
	"repro/internal/programs"
	"repro/internal/solver"
	"repro/internal/topology"
)

// testJobs builds a mixed batch of real solve jobs: every benchmark
// program, several solvers, distinct seeds.
func testJobs(t *testing.T, n int) []Job {
	t.Helper()
	keys := []string{"NE", "GJ", "FFT", "MM"}
	names := []string{"sa", "hlf", "etf", "auto"}
	topo, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, n)
	for i := range jobs {
		prog, err := programs.ByKey(keys[i%len(keys)])
		if err != nil {
			t.Fatal(err)
		}
		slv, err := solver.Get(names[i%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		opt := core.DefaultOptions()
		opt.Seed = int64(1991 + i)
		jobs[i] = Job{
			Solver: slv,
			Req: solver.Request{
				Graph: prog.Build(),
				Topo:  topo,
				Comm:  topology.DefaultCommParams(),
				SA:    opt,
			},
		}
	}
	return jobs
}

// fingerprint reduces a result to a comparable string covering the whole
// schedule, not just the makespan.
func fingerprint(res *machsim.Result) string {
	return fmt.Sprintf("%s|%.9f|%d|%v|%v|%v", res.Policy, res.Makespan, res.Messages,
		res.Proc, res.Start, res.Finish)
}

// TestEngineDeterministicAcrossWorkerCounts solves one batch at worker
// counts 1, 4 and 16 and requires identical schedules per index: worker
// placement (and the worker-owned arena + pooled scheduler) must never
// leak into results.
func TestEngineDeterministicAcrossWorkerCounts(t *testing.T) {
	jobs := testJobs(t, 12)
	var want []string
	for _, workers := range []int{1, 4, 16} {
		eng := New(Config{Workers: workers})
		items := make([]<-chan Item, len(jobs))
		for i, job := range jobs {
			items[i] = eng.Submit(context.Background(), job)
		}
		got := make([]string, len(jobs))
		for i, ch := range items {
			item := <-ch
			if item.Err != nil {
				t.Fatalf("workers=%d index=%d: %v", workers, i, item.Err)
			}
			got[i] = fingerprint(item.Result)
		}
		eng.Close()
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d index=%d diverged:\n  got  %s\n  want %s", workers, i, got[i], want[i])
			}
		}
	}
}

// TestEngineMatchesDirectSolve proves the engine is transparent: the
// worker-owned arena and pooled scheduler produce exactly the schedule a
// direct solver.Solve (fresh state per solve) produces.
func TestEngineMatchesDirectSolve(t *testing.T) {
	jobs := testJobs(t, 8)
	eng := New(Config{Workers: 3})
	defer eng.Close()
	for i, job := range jobs {
		direct, err := job.Solver.Solve(context.Background(), job.Req)
		if err != nil {
			t.Fatal(err)
		}
		via, err := eng.Solve(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(via) != fingerprint(direct) {
			t.Errorf("index %d: engine result diverged from direct solve:\n  engine %s\n  direct %s",
				i, fingerprint(via), fingerprint(direct))
		}
	}
}

// gate is a controllable latch for gated test solvers.
type gate struct {
	ch   chan struct{}
	once sync.Once
}

func newGate() *gate                    { return &gate{ch: make(chan struct{})} }
func (g *gate) open()                   { g.once.Do(func() { close(g.ch) }) }
func (g *gate) wait()                   { <-g.ch }
func (g *gate) opened() <-chan struct{} { return g.ch }

// gatedSolver blocks in Solve until its gate opens, then delegates to
// hlf. It proves stream ordering without wall-clock sleeps.
type gatedSolver struct {
	g *gate
}

func (s gatedSolver) Name() string        { return "gatedtest" }
func (s gatedSolver) Description() string { return "test-only solver gated on a channel" }

func (s gatedSolver) Solve(ctx context.Context, req solver.Request) (*machsim.Result, error) {
	select {
	case <-s.g.opened():
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	hlf, err := solver.Get("hlf")
	if err != nil {
		return nil, err
	}
	return hlf.Solve(ctx, req)
}

// indexedItem tags a batch member's Item with its index, as the service's
// batch endpoint tags its NDJSON lines.
type indexedItem struct {
	index int
	Item
}

// fanSubmit pipelines jobs through Submit with Fan, the way the service's
// batch endpoint does, under the engine's batch cap.
func fanSubmit(eng *Engine, jobs []Job) (<-chan indexedItem, error) {
	return Fan(len(jobs), eng.MaxBatch(), func(i int) indexedItem {
		return indexedItem{i, <-eng.Submit(context.Background(), jobs[i])}
	})
}

// TestStreamPipelinesEarlyItems is the streaming proof: with one member
// of a batch fanned through Submit artificially stuck, every other item is
// delivered while the slow member still runs — item 0's delivery does not
// wait for item N-1's completion.
func TestStreamPipelinesEarlyItems(t *testing.T) {
	jobs := testJobs(t, 4)
	slow := newGate()
	slowIdx := len(jobs) - 1
	jobs[slowIdx].Solver = gatedSolver{g: slow}

	eng := New(Config{Workers: len(jobs)})
	defer eng.Close()
	defer slow.open() // a failed check must not leave Close waiting on the slow member
	ch, err := fanSubmit(eng, jobs)
	if err != nil {
		t.Fatal(err)
	}

	fast := make(map[int]bool)
	for i := 0; i < len(jobs)-1; i++ {
		item, ok := <-ch
		if !ok {
			t.Fatal("stream closed before the fast items arrived")
		}
		if item.Err != nil {
			t.Fatalf("index %d: %v", item.index, item.Err)
		}
		if item.index == slowIdx {
			t.Fatal("gated item delivered while its gate is closed")
		}
		fast[item.index] = true
	}
	if len(fast) != len(jobs)-1 {
		t.Fatalf("expected %d distinct fast items, got %v", len(jobs)-1, fast)
	}
	// Every fast item has been consumed and the slow member is still
	// gated; releasing it must complete the stream.
	slow.open()
	item, ok := <-ch
	if !ok || item.index != slowIdx || item.Err != nil {
		t.Fatalf("slow item = %+v, ok=%v", item, ok)
	}
	if _, ok := <-ch; ok {
		t.Fatal("stream yielded more items than jobs")
	}
}

func TestStreamEnforcesMaxBatch(t *testing.T) {
	eng := New(Config{Workers: 1, MaxBatch: 2})
	defer eng.Close()
	if _, err := fanSubmit(eng, make([]Job, 3)); err == nil {
		t.Fatal("oversized batch accepted")
	}
	ch, err := fanSubmit(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := <-ch; ok {
		t.Fatal("empty stream yielded an item")
	}
}

func TestSubmitQueueRespectsContext(t *testing.T) {
	eng := New(Config{Workers: 1})
	defer eng.Close()
	block := newGate()
	defer block.open() // a failed check must not leave Close waiting on the leader
	jobs := testJobs(t, 2)
	jobs[0].Solver = gatedSolver{g: block}
	first := eng.Submit(context.Background(), jobs[0])

	// The only worker is busy; a second submission with an expiring
	// context must fail with ErrQueueTimeout without ever running.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	item := <-eng.Submit(ctx, jobs[1])
	if !errors.Is(item.Err, ErrQueueTimeout) {
		t.Fatalf("queued item err = %v, want ErrQueueTimeout", item.Err)
	}
	block.open()
	if item := <-first; item.Err != nil {
		t.Fatalf("blocked leader failed: %v", item.Err)
	}
	st := eng.Stats()
	if st.Completed != 1 {
		t.Fatalf("completed = %d, want 1 (the timed-out job must never run)", st.Completed)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	eng := New(Config{Workers: 2})
	eng.Close()
	eng.Close() // idempotent
	item := <-eng.Submit(context.Background(), testJobs(t, 1)[0])
	if !errors.Is(item.Err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", item.Err)
	}
}

// TestEngineBoundsConcurrency proves at most Workers jobs run at once.
func TestEngineBoundsConcurrency(t *testing.T) {
	eng := New(Config{Workers: 3})
	defer eng.Close()
	var running, peak atomic.Int64
	probe := probeSolver{fn: func() {
		n := running.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		running.Add(-1)
	}}
	base := testJobs(t, 1)[0]
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job := base
			job.Solver = probe
			if item := <-eng.Submit(context.Background(), job); item.Err != nil {
				t.Error(item.Err)
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 3 {
		t.Fatalf("engine ran %d jobs at once, bound is 3", got)
	}
	st := eng.Stats()
	if st.Completed != 20 || st.Workers != 3 || st.Busy != 0 {
		t.Fatalf("engine stats %+v", st)
	}
}

// probeSolver runs fn and then a trivial hlf solve.
type probeSolver struct {
	fn func()
}

func (p probeSolver) Name() string        { return "probetest" }
func (p probeSolver) Description() string { return "test-only concurrency probe" }

func (p probeSolver) Solve(ctx context.Context, req solver.Request) (*machsim.Result, error) {
	p.fn()
	hlf, err := solver.Get("hlf")
	if err != nil {
		return nil, err
	}
	return hlf.Solve(ctx, req)
}

func TestParallelForDeterministicErrorAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		// Error-free run: every index runs exactly once at any worker count.
		var hits [40]atomic.Int64
		err := ParallelFor(workers, len(hits), func(i int, w *Worker) error {
			hits[i].Add(1)
			if w == nil {
				return fmt.Errorf("nil worker")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
		// Failing run: the reported error is the lowest-indexed one,
		// regardless of completion order (the sequential degenerate mode
		// simply stops there).
		err = ParallelFor(workers, len(hits), func(i int, _ *Worker) error {
			if i == 7 || i == 31 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom 7" {
			t.Fatalf("workers=%d: err = %v, want the lowest-index error", workers, err)
		}
		// Empty range: fn never runs, and there is no error to report.
		err = ParallelFor(workers, 0, func(i int, _ *Worker) error {
			return fmt.Errorf("ran index %d of an empty range", i)
		})
		if err != nil {
			t.Fatalf("workers=%d: empty range: %v", workers, err)
		}
	}
}

// TestWorkerArenasAreLazyAndSticky: a Worker creates each arena once.
func TestWorkerArenasAreLazyAndSticky(t *testing.T) {
	w := &Worker{}
	if w.arena != nil || w.sched != nil {
		t.Fatal("worker pre-created arenas")
	}
	a1, s1 := w.Arena(), w.Scheduler()
	if a1 == nil || s1 == nil {
		t.Fatal("nil arenas")
	}
	if w.Arena() != a1 || w.Scheduler() != s1 {
		t.Fatal("worker arenas not sticky")
	}
}

// TestSchedulerArenaResetMatchesFresh: a pooled core.Scheduler Reset
// across different problems reproduces fresh-scheduler schedules exactly.
func TestSchedulerArenaResetMatchesFresh(t *testing.T) {
	topo, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	pooled := core.NewSchedulerArena()
	arena := machsim.NewArena()
	for i, cfg := range []struct {
		key  string
		topo *topology.Topology
		seed int64
	}{
		{"NE", topo, 1}, {"FFT", ring, 2}, {"GJ", topo, 3}, {"NE", ring, 1}, {"NE", topo, 1},
	} {
		prog, err := programs.ByKey(cfg.key)
		if err != nil {
			t.Fatal(err)
		}
		g := prog.Build()
		comm := topology.DefaultCommParams()
		opt := core.DefaultOptions()
		opt.Seed = cfg.seed
		model := machsim.Model{Graph: g, Topo: cfg.topo, Comm: comm}

		fresh, err := core.NewScheduler(g, cfg.topo, comm, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := machsim.Run(model, fresh, machsim.Options{})
		if err != nil {
			t.Fatal(err)
		}

		if err := pooled.Reset(g, cfg.topo, comm, opt); err != nil {
			t.Fatal(err)
		}
		if err := arena.Bind(model, machsim.Options{}); err != nil {
			t.Fatal(err)
		}
		got, err := arena.Run(pooled)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(got) != fingerprint(want) {
			t.Errorf("case %d (%s on %s): pooled scheduler diverged from fresh:\n  got  %s\n  want %s",
				i, cfg.key, cfg.topo.Name(), fingerprint(got), fingerprint(want))
		}
	}
}
