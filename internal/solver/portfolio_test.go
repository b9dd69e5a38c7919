package solver

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machsim"
	"repro/internal/programs"
	"repro/internal/topology"
)

// saOptions returns the default SA options with the given seed.
func saOptions(seed int64) core.Options {
	opt := core.DefaultOptions()
	opt.Seed = seed
	return opt
}

// swapMembers replaces the portfolio member list for one test.
func swapMembers(t *testing.T, members []string) {
	t.Helper()
	old := PortfolioMembers
	PortfolioMembers = members
	t.Cleanup(func() { PortfolioMembers = old })
}

var registerPortfolioTestSolvers sync.Once

// prunableSolver cooperates with the portfolio's Stop hook: it waits
// until the hook reports that a simulation clock of +Inf can no longer
// win (i.e. an incumbent landed), then returns the hook's error — exactly
// what a machsim run whose clock passed the incumbent would do.
type prunableSolver struct{}

func (prunableSolver) Name() string        { return "prunabletest" }
func (prunableSolver) Description() string { return "test-only member that prunes itself" }

// sawStop records whether the last Solve saw a Stop hook installed.
var sawStop atomic.Bool

func (prunableSolver) Solve(ctx context.Context, req Request) (*machsim.Result, error) {
	sawStop.Store(req.Sim.Stop != nil)
	if req.Sim.Stop == nil {
		// Pruning disabled: answer like hlf.
		s, err := Get("hlf")
		if err != nil {
			return nil, err
		}
		return s.Solve(ctx, req)
	}
	for {
		if err := req.Sim.Stop(math.MaxFloat64); err != nil {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// stuckSolver blocks until its context ends.
type stuckSolver struct{}

func (stuckSolver) Name() string        { return "stucktest" }
func (stuckSolver) Description() string { return "test-only member that never finishes" }

func (stuckSolver) Solve(ctx context.Context, req Request) (*machsim.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func ensurePortfolioTestSolvers(t *testing.T) {
	t.Helper()
	registerPortfolioTestSolvers.Do(func() {
		for _, s := range []Solver{prunableSolver{}, stuckSolver{}} {
			if err := Register(s); err != nil {
				t.Fatalf("register %s: %v", s.Name(), err)
			}
		}
	})
}

func portfolioTestRequest(t *testing.T) Request {
	t.Helper()
	prog, err := programs.ByKey("NE")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	return Request{
		Graph: prog.Build(),
		Topo:  topo,
		Comm:  topology.DefaultCommParams(),
		SA:    saOptions(1991),
	}
}

// TestPortfolioPrunesDoomedMember: a member whose own lower bound passes
// the incumbent best is cancelled mid-run; the race's winner is the
// surviving member, the result carries Pruned and is flagged Raced.
func TestPortfolioPrunesDoomedMember(t *testing.T) {
	ensurePortfolioTestSolvers(t)
	swapMembers(t, []string{"hlf", "prunabletest"})

	req := portfolioTestRequest(t)
	res, err := Solve(context.Background(), "portfolio", req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "HLF" {
		t.Fatalf("winner = %q, want the surviving HLF member", res.Policy)
	}
	if res.Pruned != 1 {
		t.Fatalf("Pruned = %d, want 1", res.Pruned)
	}
	if !res.Raced {
		t.Fatal("pruned race not flagged Raced")
	}
}

// TestPortfolioPruningDisabled: with DisablePruning no Stop hook is
// installed and nothing is pruned.
func TestPortfolioPruningDisabled(t *testing.T) {
	ensurePortfolioTestSolvers(t)
	swapMembers(t, []string{"hlf", "prunabletest"})

	req := portfolioTestRequest(t)
	req.Portfolio.DisablePruning = true
	res, err := Solve(context.Background(), "portfolio", req)
	if err != nil {
		t.Fatal(err)
	}
	if sawStop.Load() {
		t.Fatal("Stop hook installed despite DisablePruning")
	}
	if res.Pruned != 0 {
		t.Fatalf("Pruned = %d, want 0", res.Pruned)
	}
}

// TestPortfolioMemberTimeout: a per-member deadline cancels only the
// stuck member — the race completes, wins with the healthy member, and
// is flagged Raced because a member lost to its own budget.
func TestPortfolioMemberTimeout(t *testing.T) {
	ensurePortfolioTestSolvers(t)
	swapMembers(t, []string{"hlf", "stucktest"})

	req := portfolioTestRequest(t)
	req.Portfolio.MemberTimeout = 20 * time.Millisecond
	start := time.Now()
	res, err := Solve(context.Background(), "portfolio", req)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("member timeout did not bound the race: %v", elapsed)
	}
	if res.Policy != "HLF" {
		t.Fatalf("winner = %q, want HLF", res.Policy)
	}
	if !res.Raced {
		t.Fatal("member-deadline race not flagged Raced")
	}
	if res.Pruned != 0 {
		t.Fatalf("Pruned = %d, want 0 (deadline, not bound)", res.Pruned)
	}
}

// TestPortfolioPruningNeverChangesWinner: for real members, the pruned
// winner equals the winner with pruning disabled — pruning only cancels
// members that strictly cannot win.
func TestPortfolioPruningNeverChangesWinner(t *testing.T) {
	for _, key := range []string{"NE", "GJ", "MM", "FFT"} {
		prog, err := programs.ByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := topology.Hypercube(3)
		if err != nil {
			t.Fatal(err)
		}
		req := Request{
			Graph: prog.Build(),
			Topo:  topo,
			Comm:  topology.DefaultCommParams(),
			SA:    saOptions(7),
		}
		pruned, err := Solve(context.Background(), "portfolio", req)
		if err != nil {
			t.Fatal(err)
		}
		req.Portfolio.DisablePruning = true
		plain, err := Solve(context.Background(), "portfolio", req)
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Policy != plain.Policy || pruned.Makespan != plain.Makespan {
			t.Errorf("%s: pruning changed the winner: %s/%.6f vs %s/%.6f",
				key, pruned.Policy, pruned.Makespan, plain.Policy, plain.Makespan)
		}
	}
}

// TestErrPrunedDetectable: the machsim interrupt wrapper keeps ErrPruned
// reachable through errors.Is (the counter depends on it).
func TestErrPrunedDetectable(t *testing.T) {
	prog, err := programs.ByKey("NE")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Graph: prog.Build(), Topo: topo, Comm: topology.DefaultCommParams(), SA: saOptions(1)}
	req.Sim.Stop = func(now float64) error { return ErrPruned }
	_, err = Solve(context.Background(), "hlf", req)
	if !errors.Is(err, ErrPruned) {
		t.Fatalf("err = %v, want ErrPruned through the machsim wrapper", err)
	}
}

// TestPortfolioBoundUpdates: every member makespan that strictly improves
// the shared incumbent counts as a bound update. The first finisher
// always tightens the bound from +Inf, so any healthy race reports at
// least one; a deliberately worse second member must not add more.
func TestPortfolioBoundUpdates(t *testing.T) {
	swapMembers(t, []string{"hlf", "sa"})
	req := portfolioTestRequest(t)
	res, err := Solve(context.Background(), "portfolio", req)
	if err != nil {
		t.Fatal(err)
	}
	if res.BoundUpdates < 1 {
		t.Fatalf("BoundUpdates = %d, want >= 1 (first finisher tightens +Inf)", res.BoundUpdates)
	}
	if res.BoundUpdates > len(PortfolioMembers) {
		t.Fatalf("BoundUpdates = %d exceeds member count %d", res.BoundUpdates, len(PortfolioMembers))
	}
}
