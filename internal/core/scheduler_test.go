package core

import (
	"math"
	"testing"

	"repro/internal/anneal"
	"repro/internal/machsim"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Options{
		{Wb: -0.1, Wc: 1.1},
		{Wb: 0.5, Wc: 0.6},
		{Wb: 0.2, Wc: 0.2},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d accepted: %+v", i, o)
		}
	}
	ok := Options{Wb: 0.3, Wc: 0.7}
	if err := ok.Validate(); err != nil {
		t.Errorf("wb=0.3/wc=0.7 rejected: %v", err)
	}
}

func TestNewSchedulerErrors(t *testing.T) {
	g := taskgraph.New("g")
	g.AddTask("a", 1)
	topo, _ := topology.Hypercube(1)
	if _, err := NewScheduler(g, nil, topology.DefaultCommParams(), DefaultOptions()); err == nil {
		t.Error("nil topology accepted")
	}
	badOpt := DefaultOptions()
	badOpt.Wb, badOpt.Wc = 1, 1
	if _, err := NewScheduler(g, topo, topology.DefaultCommParams(), badOpt); err == nil {
		t.Error("bad weights accepted")
	}
	cyc := taskgraph.New("cyc")
	a := cyc.AddTask("a", 1)
	b := cyc.AddTask("b", 1)
	cyc.MustAddEdge(a, b, 0)
	cyc.MustAddEdge(b, a, 0)
	if _, err := NewScheduler(cyc, topo, topology.DefaultCommParams(), DefaultOptions()); err == nil {
		t.Error("cyclic graph accepted")
	}
}

// runSA is a helper running a full simulation with the SA policy.
func runSA(t *testing.T, g *taskgraph.Graph, topo *topology.Topology,
	comm topology.CommParams, opt Options) (*machsim.Result, *Scheduler) {
	t.Helper()
	sched, err := NewScheduler(g, topo, comm, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := machsim.Run(machsim.Model{Graph: g, Topo: topo, Comm: comm}, sched, machsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res, sched
}

func TestSchedulerCompletesForkJoin(t *testing.T) {
	g, err := taskgraph.ForkJoin("fj", 6, 10, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := topology.Hypercube(2)
	opt := DefaultOptions()
	opt.Seed = 5
	res, sched := runSA(t, g, topo, topology.DefaultCommParams(), opt)
	if res.Forced != 0 {
		t.Errorf("forced assignments: %d", res.Forced)
	}
	if res.Makespan <= 0 {
		t.Error("no makespan")
	}
	if len(sched.Packets()) == 0 {
		t.Error("no packets recorded")
	}
	for _, p := range sched.Packets() {
		if p.Assigned == 0 {
			t.Errorf("packet at %g assigned nothing", p.Time)
		}
		if p.Assigned > p.Idle {
			t.Errorf("packet overassigned: %+v", p)
		}
	}
}

func TestSchedulerDeterministicBySeed(t *testing.T) {
	g, err := taskgraph.ForkJoin("fj", 8, 10, 1, 400)
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := topology.Ring(5)
	run := func() float64 {
		opt := DefaultOptions()
		opt.Seed = 77
		res, _ := runSA(t, g, topo, topology.DefaultCommParams(), opt)
		return res.Makespan
	}
	if run() != run() {
		t.Error("same seed produced different makespans")
	}
}

func TestSchedulerSeedChangesSchedule(t *testing.T) {
	// Different seeds should usually explore different mappings; at
	// minimum they must both be valid. We only check both complete.
	g, err := taskgraph.ForkJoin("fj", 8, 10, 1, 400)
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := topology.Ring(5)
	for _, seed := range []int64{1, 2} {
		opt := DefaultOptions()
		opt.Seed = seed
		res, _ := runSA(t, g, topo, topology.DefaultCommParams(), opt)
		if res.Makespan <= 0 {
			t.Fatalf("seed %d: bad makespan", seed)
		}
	}
}

func TestSchedulerPrefersLocalPlacement(t *testing.T) {
	// A chain with heavy edges: annealing with communication enabled must
	// keep the chain on one processor (zero messages), because any remote
	// placement costs eq.-4 communication.
	g, err := taskgraph.Chain("chain", 6, 10, 4000)
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := topology.Ring(4)
	opt := DefaultOptions()
	opt.Seed = 3
	res, _ := runSA(t, g, topo, topology.DefaultCommParams(), opt)
	if res.Messages != 0 {
		t.Errorf("chain scheduling produced %d messages, want 0", res.Messages)
	}
	if math.Abs(res.Makespan-60) > 1e-9 {
		t.Errorf("chain makespan = %g, want 60", res.Makespan)
	}
}

func TestSchedulerSelectsHighLevelFirstWithoutComm(t *testing.T) {
	// Without communication the cost reduces to the balance term: the
	// annealing selection must favor high-level (critical) tasks, giving
	// the same makespan as HLF on a two-chain workload with one processor
	// short.
	g := taskgraph.New("twochain")
	// Long chain: 3 tasks of 10; short tasks: two independent of 1.
	c1 := g.AddTask("c1", 10)
	c2 := g.AddTask("c2", 10)
	c3 := g.AddTask("c3", 10)
	g.MustAddEdge(c1, c2, 40)
	g.MustAddEdge(c2, c3, 40)
	g.AddTask("s1", 1)
	g.AddTask("s2", 1)
	topo, _ := topology.ChainTopo(2)
	opt := DefaultOptions()
	opt.Seed = 9
	res, _ := runSA(t, g, topo, topology.DefaultCommParams().NoComm(), opt)
	// Optimal: chain on one processor (30), shorts fill the other.
	if math.Abs(res.Makespan-30) > 1e-9 {
		t.Errorf("makespan = %g, want 30", res.Makespan)
	}
}

func TestSchedulerTraceRecording(t *testing.T) {
	g, err := taskgraph.ForkJoin("fj", 10, 5, 1, 400)
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := topology.Hypercube(2)
	opt := DefaultOptions()
	opt.Seed = 11
	opt.RecordTrace = true
	_, sched := runSA(t, g, topo, topology.DefaultCommParams(), opt)
	foundTrace := false
	for _, p := range sched.Packets() {
		if len(p.Trace) > 0 {
			foundTrace = true
			if p.Trace[0].Iter != 0 {
				t.Errorf("trace starts at iter %d", p.Trace[0].Iter)
			}
			for i := 1; i < len(p.Trace); i++ {
				if p.Trace[i].Iter != p.Trace[i-1].Iter+1 {
					t.Errorf("trace iters not consecutive at %d", i)
					break
				}
				if p.Trace[i].Temp > p.Trace[i-1].Temp+1e-12 {
					t.Errorf("temperature increased at %d", i)
					break
				}
			}
			// Ftot must equal the weighted normalized combination of the
			// recorded run (non-increasing check is too strong: SA climbs).
			last := p.Trace[len(p.Trace)-1]
			if math.IsNaN(last.Ftot) || math.IsInf(last.Ftot, 0) {
				t.Error("non-finite trace cost")
			}
		}
	}
	if !foundTrace {
		t.Error("no packet recorded a trace")
	}
	if sched.AvgCandidates() <= 0 || sched.AvgIdle() <= 0 {
		t.Error("packet averages empty")
	}
}

func TestSchedulerCustomAnnealOptions(t *testing.T) {
	g, err := taskgraph.ForkJoin("fj", 6, 10, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := topology.Hypercube(2)
	opt := DefaultOptions()
	opt.Seed = 17
	opt.Cooling = anneal.Linear{T0: 0.5, NumStages: 10}
	res, sched := runSA(t, g, topo, topology.DefaultCommParams(), opt)
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	for _, p := range sched.Packets() {
		if p.Stages > 10 {
			t.Errorf("packet exceeded stages: %d", p.Stages)
		}
	}
}

// A scheduler arena Reset from one cooling schedule to another anneals on
// the new one: the stage temperatures it cached for a solve are dropped
// at Reset, so the arena's packets match a fresh scheduler's bit for bit.
func TestResetRebindsCachedCooling(t *testing.T) {
	g, err := taskgraph.ForkJoin("fj", 6, 10, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := topology.Hypercube(2)
	comm := topology.DefaultCommParams()
	paper := DefaultOptions()
	paper.Seed = 3
	hot := paper
	hot.Cooling = anneal.Linear{T0: 4, NumStages: 30}
	arena := NewSchedulerArena()
	for _, opt := range []Options{paper, hot, paper} {
		if err := arena.Reset(g, topo, comm, opt); err != nil {
			t.Fatal(err)
		}
		got, err := machsim.Run(machsim.Model{Graph: g, Topo: topo, Comm: comm}, arena, machsim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, fresh := runSA(t, g, topo, comm, opt)
		if got.Makespan != want.Makespan || len(arena.Packets()) != len(fresh.Packets()) {
			t.Fatalf("%v: arena makespan %v over %d packets, fresh %v over %d", opt.Cooling, got.Makespan, len(arena.Packets()), want.Makespan, len(fresh.Packets()))
		}
		for k, rep := range arena.Packets() {
			if !sameReport(rep, fresh.Packets()[k]) {
				t.Fatalf("%v: packet %d reports %+v, fresh scheduler %+v", opt.Cooling, k, rep, fresh.Packets()[k])
			}
		}
	}
}

func TestFillAnnealDefaultsScalesWithPacket(t *testing.T) {
	g := taskgraph.New("g")
	g.AddTask("a", 1)
	topo, _ := topology.Hypercube(1)
	sched, err := NewScheduler(g, topo, topology.DefaultCommParams(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	small := sched.fillAnnealDefaults(1, 1)
	if small.MovesPerStage < 20 {
		t.Errorf("small packet moves = %d, want >= 20", small.MovesPerStage)
	}
	big := sched.fillAnnealDefaults(50, 8)
	if big.MovesPerStage != 400 {
		t.Errorf("big packet moves = %d, want capped at 400", big.MovesPerStage)
	}
	if big.Cooling == nil || big.PlateauStages != 5 {
		t.Errorf("defaults not filled: %+v", big)
	}
}

func TestSchedulerRestartsImproveOrMatch(t *testing.T) {
	g, err := taskgraph.ForkJoin("fj", 10, 10, 1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := topology.Ring(5)
	comm := topology.DefaultCommParams()
	run := func(restarts int) (*machsim.Result, *Scheduler) {
		opt := DefaultOptions()
		opt.Seed = 31
		opt.Restarts = restarts
		return runSA(t, g, topo, comm, opt)
	}
	single, _ := run(1)
	multi, sched := run(4)
	if multi.Makespan <= 0 || single.Makespan <= 0 {
		t.Fatal("bad makespans")
	}
	// Restarts multiply the per-packet move counts (1×1 packets have no
	// legal moves at all and stay at zero).
	for _, p := range sched.Packets() {
		if p.Candidates*p.Idle > 1 && p.Moves == 0 {
			t.Errorf("packet at %g (%dx%d) annealed zero moves", p.Time, p.Candidates, p.Idle)
		}
	}
}

func TestSchedulerRestartsKeepBestMapping(t *testing.T) {
	// With restarts, every packet's final cost must be the minimum over
	// its runs; verify the reported final cost is achievable by the
	// returned mapping (cost consistency is checked inside the packet
	// tests; here we just require no degradation vs a single run on a
	// deterministic workload).
	g, err := taskgraph.Chain("chain", 5, 10, 4000)
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := topology.ChainTopo(3)
	opt := DefaultOptions()
	opt.Seed = 3
	opt.Restarts = 3
	res, _ := runSA(t, g, topo, topology.DefaultCommParams(), opt)
	if res.Messages != 0 {
		t.Errorf("restarted SA broke chain locality: %d messages", res.Messages)
	}
}
