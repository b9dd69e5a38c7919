package machsim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/programs"
	"repro/internal/topology"
)

// TestInterruptAbortsSimulation covers the Options.Stop hook the solver
// layer uses for request deadlines and portfolio pruning.
func TestInterruptAbortsSimulation(t *testing.T) {
	topo, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{Graph: programs.NewtonEuler(), Topo: topo, Comm: topology.DefaultCommParams()}

	sentinel := errors.New("deadline hit")
	calls := 0
	_, err = Run(m, greedyPolicy{}, Options{Stop: func(float64) error {
		calls++
		if calls > 3 {
			return sentinel
		}
		return nil
	}})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if !strings.Contains(err.Error(), "interrupted") {
		t.Errorf("error %q does not mention the interruption", err)
	}

	// A nil-returning hook must not perturb the run.
	res, err := Run(m, greedyPolicy{}, Options{Stop: func(float64) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(m, greedyPolicy{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != base.Makespan {
		t.Errorf("interrupt hook changed the makespan: %g vs %g", res.Makespan, base.Makespan)
	}
}
