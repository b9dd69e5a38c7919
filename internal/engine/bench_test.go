package engine

import (
	"context"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/programs"
	"repro/internal/solver"
	"repro/internal/topology"
)

// coldJob is the NE-on-hypercube SA solve both the benchmark and the
// baseline run: the problem every cold-path figure in PERFORMANCE.md is
// quoted on.
func coldJob(tb testing.TB) Job {
	tb.Helper()
	prog, err := programs.ByKey("NE")
	if err != nil {
		tb.Fatal(err)
	}
	topo, err := topology.Hypercube(3)
	if err != nil {
		tb.Fatal(err)
	}
	slv, err := solver.Get("sa")
	if err != nil {
		tb.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Seed = 1991
	return Job{Solver: slv, Req: solver.Request{
		Graph: prog.Build(),
		Topo:  topo,
		Comm:  topology.DefaultCommParams(),
		SA:    opt,
	}}
}

// BenchmarkEngineColdSolve measures a cold solve through the engine: every
// iteration is a full Submit → worker solve → Item round trip, with the
// per-solve policy construction replaced by the worker's pooled scheduler
// (core.Scheduler.Reset) and the simulation running on the worker's warm
// arena. Compare with BenchmarkNewSchedulerPerSolve, the construction
// pattern the engine replaced; the allocs/op gap is the engine's whole
// point, and CI guards this benchmark's allocs against regression.
func BenchmarkEngineColdSolve(b *testing.B) {
	eng := New(Config{Workers: 1})
	defer eng.Close()
	job := coldJob(b)
	ctx := context.Background()
	// One warmup solve grows the worker's arenas to this problem's size,
	// so the measured iterations are the steady cold-solve path — the
	// number the CI allocs guard holds — not first-touch buffer growth.
	if _, err := eng.Solve(ctx, job); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Solve(ctx, job); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdSolveCatalog measures cold SA solves through the engine on
// the 12 combinations the end-to-end benchmark serves: the paper's four
// programs on Table 2's three machines. Iteration k solves combination
// k mod 12 at seed 1991+k, so every solve is new, as in cold_solve. One
// worker runs them, and one warmup pass over the combinations grows its
// arenas first. Unlike BenchmarkEngineColdSolve (NE on the 3-cube), whose
// one-processor packets carry few of its moves, this mix times the anneal
// where most moves are one-processor moves.
func BenchmarkColdSolveCatalog(b *testing.B) {
	slv, err := solver.Get("sa")
	if err != nil {
		b.Fatal(err)
	}
	var jobs []Job
	for _, key := range []string{"NE", "GJ", "FFT", "MM"} {
		g, err := cliutil.BuildProgram(key)
		if err != nil {
			b.Fatal(err)
		}
		for _, spec := range []string{"hypercube:3", "bus:8", "ring:9"} {
			topo, err := cliutil.ParseTopology(spec)
			if err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, Job{Solver: slv, Req: solver.Request{
				Graph: g, Topo: topo, Comm: topology.DefaultCommParams(), SA: core.DefaultOptions(),
			}})
		}
	}
	eng := New(Config{Workers: 1})
	defer eng.Close()
	ctx := context.Background()
	solve := func(job Job, seed int64) {
		job.Req.SA.Seed = seed
		if _, err := eng.Solve(ctx, job); err != nil {
			b.Fatal(err)
		}
	}
	for k, job := range jobs {
		solve(job, 1990-int64(k)) // seeds below the timed ones
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		solve(jobs[k%len(jobs)], 1991+int64(k))
	}
}

// BenchmarkNewSchedulerPerSolve is the pre-engine baseline: a fresh
// core.Scheduler (and a pool-drawn simulator) per solve, exactly what
// every front-end used to do.
func BenchmarkNewSchedulerPerSolve(b *testing.B) {
	job := coldJob(b)
	ctx := context.Background()
	// Same warmup as BenchmarkEngineColdSolve (here it warms the shared
	// machsim pool arena), so the two compare construction costs alone.
	if _, err := job.Solver.Solve(ctx, job.Req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := job.Solver.Solve(ctx, job.Req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEngineColdSolveAllocsBelowBaseline pins the acceptance criterion in
// a plain test: the engine's cold solve must allocate strictly less than
// the core.NewScheduler-per-solve path it replaced.
func TestEngineColdSolveAllocsBelowBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting in -short mode")
	}
	job := coldJob(t)
	ctx := context.Background()

	// Warm both paths first so one-time pool/arena growth is excluded.
	baselineReq := job.Req
	if _, err := job.Solver.Solve(ctx, baselineReq); err != nil {
		t.Fatal(err)
	}
	baseline := testing.AllocsPerRun(10, func() {
		if _, err := job.Solver.Solve(ctx, baselineReq); err != nil {
			t.Fatal(err)
		}
	})

	eng := New(Config{Workers: 1})
	defer eng.Close()
	if _, err := eng.Solve(ctx, job); err != nil {
		t.Fatal(err)
	}
	engineAllocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.Solve(ctx, job); err != nil {
			t.Fatal(err)
		}
	})

	t.Logf("allocs/op: engine=%.1f baseline=%.1f", engineAllocs, baseline)
	if engineAllocs >= baseline {
		t.Fatalf("engine cold solve allocates %.1f/op, want strictly below the NewScheduler-per-solve baseline %.1f/op",
			engineAllocs, baseline)
	}
}

// TestEngineColdSolveAllocsUntracedPin pins the tracing fast path: with no
// trace in the context — the overwhelmingly common case — the engine's
// cold solve makes exactly the 28 allocs/op it made when last measured,
// with no tolerance, so one new per-solve allocation fails here. The
// stage-recording calls sit behind nil-trace guards precisely so the
// observability layer costs nothing when off; this test is what keeps
// those guards honest. A change that removes an allocation lowers the pin.
func TestEngineColdSolveAllocsUntracedPin(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting in -short mode")
	}
	const pin = 28
	eng := New(Config{Workers: 1})
	defer eng.Close()
	job := coldJob(t)
	ctx := context.Background()
	if _, err := eng.Solve(ctx, job); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := eng.Solve(ctx, job); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("untraced cold solve: %.1f allocs/op (pin %d)", got, pin)
	switch {
	case got > pin:
		t.Fatalf("untraced cold solve allocates %.1f/op, over the pin of %d — the disabled-trace fast path regressed", got, pin)
	case got < pin:
		t.Fatalf("untraced cold solve allocates %.1f/op, under the pin of %d — lower the pin", got, pin)
	}
}

// TestWorkerRunDetachedResult: results returned by a worker survive the
// worker rebinding its arena to another problem.
func TestWorkerRunDetachedResult(t *testing.T) {
	eng := New(Config{Workers: 1})
	defer eng.Close()
	job := coldJob(t)
	res1, err := eng.Solve(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(res1)
	// Run different problems over the same worker; res1 must not change.
	for _, j := range testJobs(t, 4) {
		if _, err := eng.Solve(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
	if got := fingerprint(res1); got != want {
		t.Fatalf("result mutated by later jobs on the same worker:\n  got  %s\n  want %s", got, want)
	}
}
