package core

import (
	"testing"

	"repro/internal/anneal"
	"repro/internal/machsim"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// The reference move must not allocate: Propose records the priced move
// in its own fields and Apply commits it, so anneal.Minimize's
// accept/reject loop stays off the heap entirely. Every other proposal is
// applied, so both the rejected and the accepted path are counted.
func TestPacketProposeZeroAllocs(t *testing.T) {
	fix, _ := packetFixture(t, 0.5, 0.5)
	pk := reference(fix)
	rng := anneal.NewRand(51)
	pk.initRandom(rng)
	move := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := pk.Propose(rng); !ok {
			t.Fatal("no move possible")
		}
		if move++; move%2 == 0 {
			pk.Apply()
		}
	})
	if allocs != 0 {
		t.Errorf("Propose+Apply allocated %.2f times per move, want 0", allocs)
	}
}

// A full anneal.Minimize run over an already-built packet must not
// allocate either: best-state tracking goes through the packet's reusable
// double buffer, not through per-improvement snapshot copies.
func TestPacketMinimizeZeroAllocs(t *testing.T) {
	fix, _ := packetFixture(t, 0.5, 0.5)
	pk := reference(fix)
	rng := anneal.NewRand(52)
	pk.initRandom(rng)
	opt := anneal.Options{
		Cooling:       anneal.Geometric{T0: 1, Alpha: 0.9, NumStages: 30},
		MovesPerStage: 40,
		RNG:           rng,
	}
	if _, err := anneal.Minimize(pk, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := anneal.Minimize(pk, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Minimize allocated %.2f times per run, want 0", allocs)
	}
}

// Packet buffers are reused across epochs: once the scheduler has seen its
// largest packet, later resets of same-or-smaller shape allocate nothing.
func TestPacketResetReusesBuffers(t *testing.T) {
	pk, g := packetFixture(t, 0.5, 0.5)
	topo, err := topology.ChainTopo(3)
	if err != nil {
		t.Fatal(err)
	}
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	locate := func(id taskgraph.TaskID) int {
		switch id {
		case 0:
			return 0
		case 1:
			return 2
		default:
			return -1
		}
	}
	ready := append([]taskgraph.TaskID(nil), pk.tasks...)
	idle := append([]int(nil), pk.procs...)
	comm := topology.DefaultCommParams()
	allocs := testing.AllocsPerRun(100, func() {
		pk.reset(ready, idle, locate, levels, topo, comm, g, 0.5, 0.5)
	})
	if allocs != 0 {
		t.Errorf("reset allocated %.2f times per epoch, want 0", allocs)
	}
}

// Equal seeds must give byte-identical schedules with restarts: per-restart
// seeds come from the scheduler stream in restart order and the winner is
// picked by (cost, restart index).
func TestSchedulerParallelRestartsDeterministic(t *testing.T) {
	g, err := taskgraph.ForkJoin("fj", 12, 10, 1, 800)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Hypercube(2)
	if err != nil {
		t.Fatal(err)
	}
	comm := topology.DefaultCommParams()
	run := func() *machsim.Result {
		opt := DefaultOptions()
		opt.Seed = 61
		opt.Restarts = 4
		sched, err := NewScheduler(g, topo, comm, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := machsim.Run(machsim.Model{Graph: g, Topo: topo, Comm: comm}, sched, machsim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan {
		t.Fatalf("makespans differ: %g vs %g", a.Makespan, b.Makespan)
	}
	for i := range a.Proc {
		if a.Proc[i] != b.Proc[i] {
			t.Fatalf("task %d placed on %d vs %d across identical-seed runs", i, a.Proc[i], b.Proc[i])
		}
	}
	for i := range a.Start {
		if a.Start[i] != b.Start[i] || a.Finish[i] != b.Finish[i] {
			t.Fatalf("task %d timing differs across identical-seed runs", i)
		}
	}
}

// With restarts the report keeps the winning restart's trace only, and a
// failed annealing run must still report the mapping's actual cost.
func TestSchedulerRestartTraceAndErrorBookkeeping(t *testing.T) {
	g, err := taskgraph.ForkJoin("fj", 10, 5, 1, 400)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Hypercube(2)
	if err != nil {
		t.Fatal(err)
	}
	comm := topology.DefaultCommParams()
	opt := DefaultOptions()
	opt.Seed = 11
	opt.Restarts = 3
	opt.RecordTrace = true
	sched, err := NewScheduler(g, topo, comm, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machsim.Run(machsim.Model{Graph: g, Topo: topo, Comm: comm}, sched, machsim.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range sched.Packets() {
		if len(p.Trace) == 0 {
			continue
		}
		// The trace belongs to one restart: iteration numbers restart at 0
		// and stay consecutive, instead of three concatenated runs.
		if p.Trace[0].Iter != 0 {
			t.Errorf("packet at %g: trace starts at iter %d", p.Time, p.Trace[0].Iter)
		}
		for i := 1; i < len(p.Trace); i++ {
			if p.Trace[i].Iter != p.Trace[i-1].Iter+1 {
				t.Errorf("packet at %g: trace iters jump at %d (restart traces interleaved?)", p.Time, i)
				break
			}
		}
		if p.Restart < 0 || p.Restart >= 3 {
			t.Errorf("packet at %g: winning restart index %d out of range", p.Time, p.Restart)
		}
	}

	// Every report's FinalCost must reflect a real mapping cost even in
	// degenerate packets (the pre-fix code left 0 when annealing bailed).
	for _, p := range sched.Packets() {
		if p.Assigned > 0 && p.FinalCost == 0 && p.InitialCost != 0 {
			t.Errorf("packet at %g: FinalCost 0 despite assignments (initial %g)", p.Time, p.InitialCost)
		}
	}
}
