package core_test

import (
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/machsim"
	"repro/internal/topology"
)

// Restarts keep their workspaces in the scheduler arena: packet clones,
// RNGs and stage bookkeeping are reused across packets and solves.
// Through one reused core.Scheduler and machsim.Arena, a Restarts=4 solve
// in every restart mode allocates at most two more times than a single
// run.
func TestRestartModesArenaAllocs(t *testing.T) {
	g, err := cliutil.BuildProgram("NE")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	comm := topology.DefaultCommParams()
	model := machsim.Model{Graph: g, Topo: topo, Comm: comm}
	sched := core.NewSchedulerArena()
	arena := machsim.NewArena()
	solve := func(opt core.Options) {
		if err := sched.Reset(g, topo, comm, opt); err != nil {
			t.Fatal(err)
		}
		if err := arena.Bind(model, machsim.Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := arena.Run(sched); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(opt core.Options) float64 {
		solve(opt) // grow the arenas to this mode's shape
		return testing.AllocsPerRun(5, func() { solve(opt) })
	}

	base := core.DefaultOptions()
	base.Seed = 7
	single := allocs(base)
	for _, cooperative := range []bool{false, true} {
		opt := base
		opt.Restarts = 4
		opt.Cooperative = cooperative
		if got := allocs(opt); got > single+2 {
			t.Errorf("cooperative=%v Restarts=4: %.1f allocs/solve, single run %.1f; want at most %.1f",
				cooperative, got, single, single+2)
		} else {
			t.Logf("cooperative=%v Restarts=4: %.1f allocs/solve (single run %.1f)", cooperative, got, single)
		}
	}
}
