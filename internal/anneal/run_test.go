package anneal

import "testing"

// A coordinator abandons a run by finishing it between stages: Finish
// restores the best state seen so far and reports the stages run.
func TestRunFinishAfterAbandon(t *testing.T) {
	rng := NewRand(3)
	s := newTour(12, rng)
	opt := Options{Cooling: Geometric{T0: 4, Alpha: 0.9, NumStages: 60}, MovesPerStage: 100}
	var r Run
	r.Start(opt, s.Cost(), s)
	for stage := 0; stage < 5; stage++ {
		temp, inv, budget, ok := r.Begin()
		if !ok {
			t.Fatalf("run ended before abandonment at stage %d", stage)
		}
		cost, best, accepted := r.Cost, r.BestCost, 0
		for k := 0; k < budget; k++ {
			delta, _ := s.Propose(rng)
			if Accept(rng.Float64(), delta, temp, inv) {
				s.Apply()
				accepted++
				if cost += delta; cost < best {
					best = cost
					s.SaveBest()
				}
			}
		}
		if !r.End(cost, best, budget, accepted, false) {
			t.Fatalf("run ended before abandonment at stage %d", stage)
		}
	}
	res := r.Finish()
	if res.FinalCost != res.BestCost {
		t.Errorf("abandoned FinalCost %g != BestCost %g", res.FinalCost, res.BestCost)
	}
	if got := s.Cost(); got != res.BestCost {
		t.Errorf("problem left at cost %g, want best %g", got, res.BestCost)
	}
	if res.Stages != 5 || res.Moves != 500 {
		t.Errorf("Stages = %d, Moves = %d, want 5 and 500", res.Stages, res.Moves)
	}
}

// With no RNG, Minimize draws from a source seeded with Options.Seed.
func TestMinimizeSeedsRNG(t *testing.T) {
	opt := Options{Cooling: Geometric{T0: 2, Alpha: 0.9, NumStages: 30}, MovesPerStage: 40, Seed: 99}
	init := NewRand(7)
	seeded := newTour(10, init)
	given := &tourState{perm: append([]int(nil), seeded.perm...), best: make([]int, 10)}
	want, err := Minimize(seeded, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.RNG = NewRand(99)
	if got, err := Minimize(given, opt); err != nil || got != want {
		t.Errorf("RNG seeded 99: %+v (err %v), Seed 99: %+v", got, err, want)
	}
}
