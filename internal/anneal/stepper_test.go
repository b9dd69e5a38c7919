package anneal

import (
	"reflect"
	"testing"
)

// stepperOptions are option sets a Stepper must replicate exactly —
// plateau stop, move cap, and plain schedule exhaustion all covered.
func stepperOptions() []Options {
	return []Options{
		{Cooling: Geometric{T0: 4, Alpha: 0.92, NumStages: 80}, MovesPerStage: 200},
		{Cooling: Geometric{T0: 1, Alpha: 0.9, NumStages: 60}, MovesPerStage: 50,
			PlateauStages: 5, PlateauEps: 1e-12, MaxMoves: 20000},
		{Cooling: Geometric{T0: 2, Alpha: 0.8, NumStages: 40}, MovesPerStage: 30, MaxMoves: 500},
		{Cooling: Linear{T0: 3, NumStages: 25}, MovesPerStage: 75, PlateauStages: 3, PlateauEps: 1e-9},
		{Cooling: Constant{T: 0.5, NumStages: 10}, MovesPerStage: 20},
	}
}

// TestStepperEquivalentToMinimize pins the Stepper contract: driving a
// Stepper to completion consumes the RNG identically to Minimize and
// produces the identical Result and final problem state, for a spread of
// cooling schedules and stopping rules.
func TestStepperEquivalentToMinimize(t *testing.T) {
	for oi, opt := range stepperOptions() {
		for seed := int64(1); seed <= 5; seed++ {
			init := NewRand(seed)
			pm := newTour(16, init)
			ps := &tourState{perm: append([]int(nil), pm.perm...), best: make([]int, 16)}

			mo := opt
			mo.RNG = NewRand(seed * 1009)
			want, err := Minimize(pm, mo)
			if err != nil {
				t.Fatal(err)
			}

			so := opt
			so.RNG = NewRand(seed * 1009)
			st, err := NewStepper(ps, so)
			if err != nil {
				t.Fatal(err)
			}
			steps := 0
			for st.Step() {
				steps++
			}
			got := st.Result()

			if got != want {
				t.Errorf("opt %d seed %d: stepper result %+v != minimize %+v (steps %d)",
					oi, seed, got, want, steps)
			}
			if !reflect.DeepEqual(pm.perm, ps.perm) {
				t.Errorf("opt %d seed %d: final states differ:\nminimize %v\nstepper  %v",
					oi, seed, pm.perm, ps.perm)
			}
			if !st.Done() {
				t.Errorf("opt %d seed %d: stepper not done after Result", oi, seed)
			}
		}
	}
}

// TestStepperSeedRNG pins the nil-RNG path: like Minimize, a Stepper with
// no RNG derives one from Options.Seed.
func TestStepperSeedRNG(t *testing.T) {
	opt := Options{Cooling: Geometric{T0: 2, Alpha: 0.9, NumStages: 30}, MovesPerStage: 40, Seed: 99}
	init := NewRand(7)
	pm := newTour(10, init)
	ps := &tourState{perm: append([]int(nil), pm.perm...), best: make([]int, 10)}
	want, err := Minimize(pm, opt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(ps, opt)
	if err != nil {
		t.Fatal(err)
	}
	for st.Step() {
	}
	if got := st.Result(); got != want {
		t.Errorf("seeded stepper result %+v != minimize %+v", got, want)
	}
}

// TestStepperAbandon proves an abandoned run finalizes cleanly: Step
// refuses to continue, and Result restores the best state seen so far.
func TestStepperAbandon(t *testing.T) {
	rng := NewRand(3)
	s := newTour(12, rng)
	opt := Options{Cooling: Geometric{T0: 4, Alpha: 0.9, NumStages: 60},
		MovesPerStage: 100, RNG: rng}
	st, err := NewStepper(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !st.Step() {
			t.Fatalf("run ended before abandonment at step %d", i)
		}
	}
	st.Abandon()
	if st.Step() {
		t.Fatal("Step continued after Abandon")
	}
	res := st.Result()
	if res.FinalCost != res.BestCost {
		t.Errorf("abandoned FinalCost %g != BestCost %g", res.FinalCost, res.BestCost)
	}
	if got := s.Cost(); got != res.BestCost {
		t.Errorf("problem left at cost %g, want best %g", got, res.BestCost)
	}
	if res.Stages != 5 {
		t.Errorf("Stages = %d, want 5", res.Stages)
	}
}

// TestStepperValidation pins the error parity with Minimize.
func TestStepperValidation(t *testing.T) {
	s := newTour(4, NewRand(1))
	if _, err := NewStepper(s, Options{MovesPerStage: 10}); err != ErrNoCooling {
		t.Errorf("no cooling: got %v, want ErrNoCooling", err)
	}
	if _, err := NewStepper(s, Options{Cooling: Constant{T: 1, NumStages: 5}}); err == nil {
		t.Error("MovesPerStage 0 accepted")
	}
}
