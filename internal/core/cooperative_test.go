package core

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/machsim"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

func coopFixture(t *testing.T) (*taskgraph.Graph, *topology.Topology, topology.CommParams) {
	t.Helper()
	g, err := taskgraph.ForkJoin("fj", 14, 12, 1, 900)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	return g, topo, topology.DefaultCommParams()
}

func coopRun(t *testing.T, g *taskgraph.Graph, topo *topology.Topology, comm topology.CommParams, opt Options) (*machsim.Result, *Scheduler) {
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

func sameSchedule(t *testing.T, tag string, a, b *machsim.Result) {
	t.Helper()
	if a.Makespan != b.Makespan {
		t.Fatalf("%s: makespans differ: %g vs %g", tag, a.Makespan, b.Makespan)
	}
	for i := range a.Proc {
		if a.Proc[i] != b.Proc[i] {
			t.Fatalf("%s: task %d placed on %d vs %d", tag, i, a.Proc[i], b.Proc[i])
		}
	}
	for i := range a.Start {
		if a.Start[i] != b.Start[i] || a.Finish[i] != b.Finish[i] {
			t.Fatalf("%s: task %d timing differs", tag, i)
		}
	}
}

// With abandonment disabled, cooperative restarts differ from independent
// ones only in the options they set: both draw the same seeds and step
// the same runs through one barrier loop, so the schedules must be
// byte-identical. This pins that the cooperative option path never
// perturbs the search.
func TestCooperativeEquivalentToRestartsWhenAbandonDisabled(t *testing.T) {
	g, topo, comm := coopFixture(t)
	base := DefaultOptions()
	base.Seed = 61
	base.Restarts = 4

	plain, _ := coopRun(t, g, topo, comm, base)

	coop := base
	coop.Cooperative = true
	coop.AbandonAfter = -1
	got, sched := coopRun(t, g, topo, comm, coop)

	sameSchedule(t, "coop vs restarts", plain, got)
	if n := sched.RestartsAbandoned(); n != 0 {
		t.Errorf("AbandonAfter<0 abandoned %d restarts, want 0", n)
	}
	if name := sched.Name(); name != "SA(coop r=4)" {
		t.Errorf("Name() = %q", name)
	}
}

// Cooperative schedules must be byte-identical at any parallelism: every
// cross-restart decision happens at a seed-deterministic barrier in
// restart order, never by wall clock.
func TestCooperativeDeterministicAcrossGOMAXPROCS(t *testing.T) {
	g, topo, comm := coopFixture(t)
	opt := DefaultOptions()
	opt.Seed = 7
	opt.Restarts = 6
	opt.Cooperative = true

	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	var ref *machsim.Result
	var refAbandoned int
	for _, procs := range []int{1, 4, 16} {
		runtime.GOMAXPROCS(procs)
		res, sched := coopRun(t, g, topo, comm, opt)
		if ref == nil {
			ref, refAbandoned = res, sched.RestartsAbandoned()
			continue
		}
		sameSchedule(t, "gomaxprocs", ref, res)
		if n := sched.RestartsAbandoned(); n != refAbandoned {
			t.Fatalf("GOMAXPROCS=%d abandoned %d restarts, reference %d", procs, n, refAbandoned)
		}
	}
}

// On a real workload with several restarts, the incumbent rule must
// actually fire — dominated restarts get abandoned — while the schedule
// stays valid and packet-level counters agree with the scheduler totals.
func TestCooperativeAbandonsDominatedRestarts(t *testing.T) {
	// A heterogeneous layered DAG: restarts land in genuinely different
	// local minima, so dominated ones exist for the incumbent rule to cut.
	g, err := taskgraph.Layered("layered", taskgraph.LayeredConfig{
		Layers: 6, MinWidth: 6, MaxWidth: 12,
		MinLoad: 5, MaxLoad: 80, MinBits: 100, MaxBits: 4000,
		EdgeProb: 0.35,
	}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	comm := topology.DefaultCommParams()
	opt := DefaultOptions()
	opt.Seed = 3
	opt.Restarts = 8
	opt.Cooperative = true
	opt.AbandonAfter = 2

	res, sched := coopRun(t, g, topo, comm, opt)
	if res.Makespan <= 0 {
		t.Fatalf("makespan %g", res.Makespan)
	}
	if sched.RestartsAbandoned() == 0 {
		t.Error("no restarts abandoned on a multi-packet run with patience 2")
	}
	sum := 0
	for _, p := range sched.Packets() {
		sum += p.Abandoned
	}
	if sum != sched.RestartsAbandoned() {
		t.Errorf("packet Abandoned sum %d != scheduler total %d", sum, sched.RestartsAbandoned())
	}

	// An abandoned restart does less work: total stages must come in
	// under the no-abandonment run's.
	full := opt
	full.AbandonAfter = -1
	_, fsched := coopRun(t, g, topo, comm, full)
	stages := func(s *Scheduler) int {
		n := 0
		for _, p := range s.Packets() {
			n += p.Stages
		}
		return n
	}
	if sa, sf := stages(sched), stages(fsched); sa >= sf {
		t.Errorf("abandonment did not save work: %d stages with patience 2 vs %d without", sa, sf)
	}
}

// Stop ends the anneal at the next barrier but still adopts the best
// mapping seen, so the scheduler completes with a valid schedule. Every
// restart mode polls it: a single run, independent restarts and
// cooperative restarts.
func TestCooperativeInterruptStopsEarlyButCompletes(t *testing.T) {
	g, topo, comm := coopFixture(t)
	for _, mode := range []struct {
		name        string
		restarts    int
		cooperative bool
	}{
		{"single", 0, false},
		{"independent", 4, false},
		{"cooperative", 4, true},
	} {
		opt := DefaultOptions()
		opt.Seed = 5
		opt.Restarts = mode.restarts
		opt.Cooperative = mode.cooperative
		barriers := 0
		opt.Stop = func(float64) error {
			barriers++
			if barriers > 3 {
				return errors.New("cancelled")
			}
			return nil
		}

		res, sched := coopRun(t, g, topo, comm, opt)
		if res.Makespan <= 0 {
			t.Fatalf("%s: makespan %g", mode.name, res.Makespan)
		}
		for i, p := range res.Proc {
			if p < 0 || p >= topo.N() {
				t.Fatalf("%s: task %d on invalid processor %d", mode.name, i, p)
			}
		}
		// Each packet can run at most 3 full barriers before the interrupt
		// fires, so per-packet stages are bounded by 4 per run.
		runs := max(opt.Restarts, 1)
		for _, p := range sched.Packets() {
			if p.Stages > 4*runs {
				t.Errorf("%s: packet at %g ran %d stages despite interrupt", mode.name, p.Time, p.Stages)
			}
		}
	}
}
