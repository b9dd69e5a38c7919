package machsim

import (
	"reflect"
	"testing"

	"repro/internal/programs"
	"repro/internal/topology"
)

// poolGreedy is greedyPolicy with a reusable output buffer, so warm-run
// allocation tests measure the simulator, not the test policy.
type poolGreedy struct{ buf []Assignment }

func (p *poolGreedy) Name() string { return "greedy" }

func (p *poolGreedy) Assign(ep *Epoch) []Assignment {
	out := p.buf[:0]
	n := len(ep.Ready)
	if n > len(ep.Idle) {
		n = len(ep.Idle)
	}
	for k := 0; k < n; k++ {
		out = append(out, Assignment{Task: ep.Ready[k], Proc: ep.Idle[k]})
	}
	p.buf = out
	return out
}

// TestSimulatorWarmRunZeroAllocs is the arena contract: once a simulator
// is bound and has completed one run, further runs of the same model touch
// the heap zero times (given a non-allocating policy).
func TestSimulatorWarmRunZeroAllocs(t *testing.T) {
	topo, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"plain", Options{}},
		{"gantt", Options{RecordGantt: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := NewSimulator(Model{Graph: programs.NewtonEuler(), Topo: topo, Comm: topology.DefaultCommParams()}, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			pol := &poolGreedy{}
			if _, err := sim.Run(pol); err != nil { // warm the buffers
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := sim.Run(pol); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("warm simulator Run allocates %.1f times, want 0", allocs)
			}
		})
	}
}

// TestSimulatorWarmBusRunZeroAllocs covers the shared-medium path.
func TestSimulatorWarmBusRunZeroAllocs(t *testing.T) {
	bus, err := topology.Bus(8)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(Model{Graph: programs.FFT(), Topo: bus, Comm: topology.DefaultCommParams()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pol := &poolGreedy{}
	if _, err := sim.Run(pol); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sim.Run(pol); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm bus Run allocates %.1f times, want 0", allocs)
	}
}

func arenaModels(t *testing.T) []Model {
	t.Helper()
	hc3, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	hc2, err := topology.Hypercube(2)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := topology.Ring(9)
	if err != nil {
		t.Fatal(err)
	}
	bus, err := topology.Bus(8)
	if err != nil {
		t.Fatal(err)
	}
	comm := topology.DefaultCommParams()
	return []Model{
		{Graph: programs.NewtonEuler(), Topo: hc3, Comm: comm},
		{Graph: programs.FFT(), Topo: ring, Comm: comm},
		{Graph: programs.GaussJordan(), Topo: bus, Comm: comm},
		{Graph: programs.MatrixMultiply(), Topo: hc2, Comm: comm},
		{Graph: programs.GrahamAnomaly(), Topo: hc2, Comm: comm.NoComm()},
		{Graph: programs.FFT(), Topo: hc3, Comm: comm.NoComm()},
	}
}

// TestArenaMixedSizeReuseDeterministic rebinds one arena across 100 runs
// of mixed graph/topology/comm combinations (growing and shrinking the
// buffers) and requires every result to be identical to a fresh
// simulator's on the same model.
func TestArenaMixedSizeReuseDeterministic(t *testing.T) {
	models := arenaModels(t)
	arena := NewArena()
	for run := 0; run < 100; run++ {
		m := models[run%len(models)]
		opts := Options{RecordGantt: run%3 == 0}
		if err := arena.Bind(m, opts); err != nil {
			t.Fatalf("run %d: bind: %v", run, err)
		}
		got, err := arena.Run(&poolGreedy{})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		fresh, err := NewSimulator(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(&poolGreedy{})
		if err != nil {
			t.Fatalf("run %d fresh: %v", run, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d (%s on %s): reused arena diverged from fresh simulator\n got: %+v\nwant: %+v",
				run, m.Graph.Name(), m.Topo.Name(), got, want)
		}
	}
}

// TestArenaRecoversAfterInterrupt asserts that an aborted run leaves no
// state behind: the next Run on the same arena matches a fresh simulator.
func TestArenaRecoversAfterInterrupt(t *testing.T) {
	topo, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{Graph: programs.NewtonEuler(), Topo: topo, Comm: topology.DefaultCommParams()}
	arena := NewArena()
	calls := 0
	err = arena.Bind(m, Options{Stop: func(float64) error {
		calls++
		if calls > 5 {
			return errAbort
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arena.Run(&poolGreedy{}); err == nil {
		t.Fatal("interrupted run did not fail")
	}
	if err := arena.Bind(m, Options{}); err != nil {
		t.Fatal(err)
	}
	got, err := arena.Run(&poolGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(m, &poolGreedy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan || got.Messages != want.Messages || !reflect.DeepEqual(got.Finish, want.Finish) {
		t.Fatalf("arena diverged after aborted run: makespan %g vs %g", got.Makespan, want.Makespan)
	}
}

var errAbort = errInterrupt{}

type errInterrupt struct{}

func (errInterrupt) Error() string { return "abort" }

// TestResultClone asserts Clone detaches every mutable field.
func TestResultClone(t *testing.T) {
	topo, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{Graph: programs.FFT(), Topo: topo, Comm: topology.DefaultCommParams()}
	sim, err := NewSimulator(m, Options{RecordGantt: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(&poolGreedy{})
	if err != nil {
		t.Fatal(err)
	}
	clone := res.Clone()
	if !reflect.DeepEqual(res, clone) {
		t.Fatal("clone differs from original")
	}
	// Mutating the arena (another run) must not disturb the clone.
	snapshot := clone.Clone()
	if _, err := sim.Run(&poolGreedy{}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clone, snapshot) {
		t.Fatal("clone aliases arena buffers")
	}
	clone.Start[0] = -99
	clone.LinkBusy[[2]int{0, 1}] = -99
	if res.Start[0] == -99 {
		t.Error("Start not detached")
	}
}
