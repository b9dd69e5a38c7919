package solver

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/machsim"
	"repro/internal/programs"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

func testRequest(t *testing.T, key string, nocomm bool) Request {
	t.Helper()
	p, err := programs.ByKey(key)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	comm := topology.DefaultCommParams()
	if nocomm {
		comm = comm.NoComm()
	}
	opt := core.DefaultOptions()
	opt.Seed = 1991
	opt.Restarts = 2
	return Request{Graph: p.Build(), Topo: topo, Comm: comm, SA: opt}
}

func TestRegistryResolvesEveryName(t *testing.T) {
	for _, name := range Names() {
		s, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("Get(%q).Name() = %q", name, s.Name())
		}
		if s.Description() == "" {
			t.Errorf("solver %q has no description", name)
		}
	}
	for alias, canon := range aliases {
		s, err := Get(alias)
		if err != nil {
			t.Fatalf("alias %q: %v", alias, err)
		}
		if s.Name() != canon {
			t.Errorf("alias %q resolved to %q, want %q", alias, s.Name(), canon)
		}
	}
	if _, err := Get("no-such-solver"); err == nil {
		t.Error("unknown solver did not error")
	}
	if len(List()) < len(Names()) {
		t.Error("List shorter than Names")
	}
}

func TestNewPolicyNames(t *testing.T) {
	req := testRequest(t, "NE", false)
	for _, name := range []string{"sa", "SA", "anneal", "hlf", "hlfcomm", "hlf+comm", "etf", "lpt", "misf", "fifo", "random"} {
		p, err := NewPolicy(name, req.Graph, req.Topo, req.Comm, req.SA)
		if err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("policy %q has no name", name)
		}
	}
	if _, err := NewPolicy("magic", req.Graph, req.Topo, req.Comm, req.SA); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestSolveDeterministic(t *testing.T) {
	req := testRequest(t, "NE", false)
	a, err := Solve(context.Background(), "sa", req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(context.Background(), "sa", testRequest(t, "NE", false))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("same seed, different makespans: %g vs %g", a.Makespan, b.Makespan)
	}
	for i := range a.Proc {
		if a.Proc[i] != b.Proc[i] || a.Start[i] != b.Start[i] {
			t.Fatalf("task %d placed differently across runs", i)
		}
	}
	if a.Policy != "SA(r=2)" {
		t.Errorf("policy name %q, want SA(r=2)", a.Policy)
	}
}

func TestPortfolioNeverWorseThanMembers(t *testing.T) {
	best := math.Inf(1)
	for _, name := range PortfolioMembers {
		if name == "optimal" {
			continue // not eligible with communication on
		}
		res, err := Solve(context.Background(), name, testRequest(t, "FFT", false))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Makespan < best {
			best = res.Makespan
		}
	}
	res, err := Solve(context.Background(), "portfolio", testRequest(t, "FFT", false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan > best+1e-9 {
		t.Fatalf("portfolio makespan %g worse than best member %g", res.Makespan, best)
	}
}

func TestOptimalEligibility(t *testing.T) {
	// Communication on: rejected.
	if _, err := Solve(context.Background(), "optimal", testRequest(t, "NE", false)); err == nil {
		t.Error("optimal accepted a request with communication enabled")
	}
	// Too many tasks: rejected even without communication.
	if _, err := Solve(context.Background(), "optimal", testRequest(t, "NE", true)); err == nil {
		t.Error("optimal accepted a 95-task request")
	}
}

func smallRequest(t *testing.T) Request {
	t.Helper()
	g := taskgraph.New("fork-join")
	a := g.AddTask("a", 4)
	for i := 0; i < 5; i++ {
		m := g.AddTask("m", float64(3+i))
		g.MustAddEdge(a, m, 0)
	}
	z := g.AddTask("z", 2)
	for id := taskgraph.TaskID(1); id <= 5; id++ {
		g.MustAddEdge(id, z, 0)
	}
	topo, err := topology.Hypercube(2)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Seed = 7
	return Request{Graph: g, Topo: topo, Comm: topology.DefaultCommParams().NoComm(), SA: opt}
}

func TestAutoPicksOptimalForSmallNocommGraphs(t *testing.T) {
	res, err := Solve(context.Background(), "auto", smallRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "optimal" {
		t.Fatalf("auto picked %q, want optimal", res.Policy)
	}
	// The exact makespan must not exceed any heuristic's on the same
	// (communication-free) instance.
	for _, name := range []string{"hlf", "etf", "sa"} {
		h, err := Solve(context.Background(), name, smallRequest(t))
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan > h.Makespan+1e-9 {
			t.Errorf("optimal %g worse than %s %g", res.Makespan, name, h.Makespan)
		}
	}
	// Sanity on the synthesized result shape.
	if res.SequentialTime <= 0 || res.Speedup <= 0 || len(res.Finish) != smallRequest(t).Graph.NumTasks() {
		t.Errorf("synthesized exact result incomplete: %+v", res)
	}
}

func TestAutoFallsBackToSA(t *testing.T) {
	res, err := Solve(context.Background(), "auto", testRequest(t, "NE", false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "SA(r=2)" {
		t.Fatalf("auto picked %q, want SA(r=2)", res.Policy)
	}
}

func TestCancelledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, "hlf", testRequest(t, "NE", false)); err == nil {
		t.Error("cancelled context did not abort the simulation")
	}
	if _, err := Solve(ctx, "portfolio", testRequest(t, "NE", false)); err == nil {
		t.Error("cancelled context did not abort the portfolio")
	}
}

func TestRequestValidation(t *testing.T) {
	req := testRequest(t, "NE", false)
	req.Graph = nil
	if _, err := Solve(context.Background(), "sa", req); err == nil {
		t.Error("nil graph accepted")
	}
	req = testRequest(t, "NE", false)
	req.Topo = nil
	if _, err := Solve(context.Background(), "sa", req); err == nil {
		t.Error("nil topology accepted")
	}
	req = testRequest(t, "NE", false)
	req.Graph = taskgraph.New("empty")
	if _, err := Solve(context.Background(), "hlf", req); err == nil {
		t.Error("empty graph accepted")
	}
}

var _ machsim.Policy = (*core.Scheduler)(nil)

// TestPortfolioEarlyCancelAtLowerBound: when a member reaches the graph's
// makespan lower bound its result cannot be beaten, the portfolio cancels
// the field, and the result is flagged Raced (timing-dependent identity).
func TestPortfolioEarlyCancelAtLowerBound(t *testing.T) {
	g := taskgraph.New("independent")
	for i := 0; i < 6; i++ {
		g.AddTask("t", 5)
	}
	topo, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Seed = 1
	req := Request{Graph: g, Topo: topo, Comm: topology.DefaultCommParams().NoComm(), SA: opt}
	res, err := Solve(context.Background(), "portfolio", req)
	if err != nil {
		t.Fatal(err)
	}
	// lb = max(longest task, T1/P) = max(5, 30/8) = 5.
	if math.Abs(res.Makespan-5) > 1e-9 {
		t.Fatalf("makespan %g, want the lower bound 5", res.Makespan)
	}
	if !res.Raced {
		t.Fatal("lower-bound finish did not flag the result as raced")
	}
}

// TestPortfolioNotRacedAwayFromLowerBound: when no member can reach the
// bound the portfolio runs every member out and stays deterministic.
func TestPortfolioNotRacedAwayFromLowerBound(t *testing.T) {
	g := taskgraph.New("three-on-two")
	for i := 0; i < 3; i++ {
		g.AddTask("t", 10)
	}
	topo, err := topology.Hypercube(1)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions()
	opt.Seed = 1
	req := Request{Graph: g, Topo: topo, Comm: topology.DefaultCommParams().NoComm(), SA: opt}
	res, err := Solve(context.Background(), "portfolio", req)
	if err != nil {
		t.Fatal(err)
	}
	// lb = max(10, 30/2) = 15 is unreachable: three equal tasks on two
	// processors finish at 20.
	if math.Abs(res.Makespan-20) > 1e-9 {
		t.Fatalf("makespan %g, want 20", res.Makespan)
	}
	if res.Raced {
		t.Fatal("bound-unreachable portfolio flagged as raced")
	}
}

// TestArenaSolveMatchesPooledSolve: a solve through a caller-owned arena
// is byte-identical to the pooled path for every policy-backed solver.
func TestArenaSolveMatchesPooledSolve(t *testing.T) {
	arena := machsim.NewArena()
	for _, name := range []string{"sa", "hlf", "etf", "hlfcomm", "lpt", "misf", "fifo", "random"} {
		req := testRequest(t, "FFT", false)
		req.Arena = arena
		got, err := Solve(context.Background(), name, req)
		if err != nil {
			t.Fatalf("%s (arena): %v", name, err)
		}
		want, err := Solve(context.Background(), name, testRequest(t, "FFT", false))
		if err != nil {
			t.Fatalf("%s (pooled): %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: arena solve diverged from pooled solve", name)
		}
	}
}

// The stop hook of a cancellable context answers the next hook's answer,
// or nil without one, until the context is cancelled, and
// context.Canceled from then on without asking the next hook. A context
// that can never be cancelled gets the next hook itself.
func TestStopHook(t *testing.T) {
	if stopHook(context.Background(), nil) != nil {
		t.Fatal("a never-cancelled context without a next hook got a hook")
	}
	errNext := errors.New("incumbent")
	calls := 0
	next := func(float64) error { calls++; return errNext }
	for _, c := range []struct {
		next func(float64) error
		want error
	}{{nil, nil}, {next, errNext}} {
		ctx, cancel := context.WithCancel(context.Background())
		hook := stopHook(ctx, c.next)
		if err := hook(1); !errors.Is(err, c.want) {
			t.Fatalf("before cancel: %v, want %v", err, c.want)
		}
		cancel()
		if err := hook(2); !errors.Is(err, context.Canceled) {
			t.Fatalf("after cancel: %v, want context.Canceled", err)
		}
	}
	if calls != 1 {
		t.Fatalf("the next hook ran %d times, want once (before cancel)", calls)
	}
}

// stopSink keeps BenchmarkStopHook's answers observable.
var stopSink error

// BenchmarkStopHook times one poll of a live request's stop hook: a
// cancellable context that has not been cancelled, with no next hook, as a
// solve polls it at every stage barrier and simulator poll. It must run
// at 0 allocs/op.
func BenchmarkStopHook(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := stopHook(ctx, nil)
	b.ResetTimer()
	var err error
	for i := 0; i < b.N; i++ {
		err = hook(float64(i))
	}
	stopSink = err
}
