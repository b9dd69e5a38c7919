package anneal

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAcceptProbBoundaries(t *testing.T) {
	// Equation (2): at Temp = 0 accept iff ΔF < 0; at Temp = ∞ probability ½.
	if got := AcceptProb(-1, 0); got != 1 {
		t.Errorf("B(-1, 0) = %g, want 1", got)
	}
	if got := AcceptProb(1, 0); got != 0 {
		t.Errorf("B(1, 0) = %g, want 0", got)
	}
	if got := AcceptProb(0, 0); got != 0 {
		t.Errorf("B(0, 0) = %g, want 0 (ΔF >= 0 rejected)", got)
	}
	if got := AcceptProb(3, math.Inf(1)); got != 0.5 {
		t.Errorf("B(3, ∞) = %g, want 0.5", got)
	}
	if got := AcceptProb(-3, math.Inf(1)); got != 0.5 {
		t.Errorf("B(-3, ∞) = %g, want 0.5", got)
	}
}

func TestAcceptProbMidRange(t *testing.T) {
	// B(ΔF, T) = 1/(1 + exp(ΔF/T)): improving moves > ½, worsening < ½.
	if got := AcceptProb(-1, 1); math.Abs(got-1/(1+math.Exp(-1))) > 1e-12 {
		t.Errorf("B(-1,1) = %g", got)
	}
	if got := AcceptProb(1, 1); got >= 0.5 {
		t.Errorf("B(1,1) = %g, want < 0.5", got)
	}
	if got := AcceptProb(0, 5); got != 0.5 {
		t.Errorf("B(0,5) = %g, want 0.5", got)
	}
	// Overflow guards.
	if got := AcceptProb(1e6, 1e-3); got != 0 {
		t.Errorf("huge ratio = %g, want 0", got)
	}
	if got := AcceptProb(-1e6, 1e-3); got != 1 {
		t.Errorf("huge negative ratio = %g, want 1", got)
	}
}

// Property: AcceptProb is a valid probability, decreasing in delta.
func TestQuickAcceptProbRange(t *testing.T) {
	f := func(d float64, rawT uint16) bool {
		temp := float64(rawT) / 100
		p := AcceptProb(d, temp)
		if p < 0 || p > 1 {
			return false
		}
		return AcceptProb(d+1, temp) <= p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// tourState is a toy problem: minimize the sum of absolute adjacent
// differences of a permutation (sorted order is optimal). It follows the
// zero-allocation contract: the priced swap is remembered in two ints and
// the best permutation lives in a reusable double buffer.
type tourState struct {
	perm   []int
	best   []int
	ui, uj int // indices of the last priced swap, for Apply
}

func (s *tourState) Cost() float64 {
	c := 0.0
	for i := 1; i < len(s.perm); i++ {
		c += math.Abs(float64(s.perm[i] - s.perm[i-1]))
	}
	return c
}

// Propose prices a swap by making it, measuring and swapping back: the
// cost is global and the state is integer, so the revert is exact.
func (s *tourState) Propose(rng *Rand) (float64, bool) {
	n := len(s.perm)
	if n < 2 {
		return 0, false
	}
	i, j := rng.Intn(n), rng.Intn(n)
	if i == j {
		j = (j + 1) % n
	}
	before := s.Cost()
	s.ui, s.uj = i, j
	s.Apply()
	delta := s.Cost() - before
	s.Apply()
	return delta, true
}

func (s *tourState) Apply() { s.perm[s.ui], s.perm[s.uj] = s.perm[s.uj], s.perm[s.ui] }

func (s *tourState) SaveBest() { copy(s.best, s.perm) }

func (s *tourState) RestoreBest() { copy(s.perm, s.best) }

// newTour returns a random tour of 0..n-1, drawn exactly like
// (*rand.Rand).Perm(n).
func newTour(n int, rng *Rand) *tourState {
	perm := make([]int, n)
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	return &tourState{perm: perm, best: make([]int, n)}
}

func TestMinimizeImprovesToyProblem(t *testing.T) {
	rng := NewRand(12)
	s := newTour(12, rng)
	initial := s.Cost()
	res, err := Minimize(s, Options{
		Cooling:       Geometric{T0: 4, Alpha: 0.92, NumStages: 80},
		MovesPerStage: 200,
		RNG:           rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.InitialCost != initial {
		t.Errorf("InitialCost = %g, want %g", res.InitialCost, initial)
	}
	if res.FinalCost > initial {
		t.Errorf("annealing worsened: %g -> %g", initial, res.FinalCost)
	}
	// Optimal cost for a permutation of 0..11 is 11 (sorted); annealing
	// with best-tracking should get at or near it.
	if res.FinalCost > 15 {
		t.Errorf("FinalCost = %g, want near-optimal (11)", res.FinalCost)
	}
	if math.Abs(s.Cost()-res.FinalCost) > 1e-9 {
		t.Errorf("state cost %g != reported %g (best not restored?)", s.Cost(), res.FinalCost)
	}
}

func TestMinimizeZeroTemperatureIsDescent(t *testing.T) {
	rng := NewRand(13)
	s := newTour(10, rng)
	res, err := Minimize(s, Options{
		Cooling:       Constant{T: 0, NumStages: 30},
		MovesPerStage: 100,
		RNG:           rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With T = 0 only strictly improving moves are accepted, so the final
	// cost can never exceed the initial cost.
	if res.FinalCost > res.InitialCost {
		t.Errorf("descent increased cost: %g -> %g", res.InitialCost, res.FinalCost)
	}
}

func TestMinimizePlateauStops(t *testing.T) {
	rng := NewRand(14)
	s := newTour(4, rng)
	res, err := Minimize(s, Options{
		Cooling:       Constant{T: 0, NumStages: 1000},
		MovesPerStage: 50,
		PlateauStages: 5,
		RNG:           rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlateauStop {
		t.Error("plateau rule did not trigger on a converged descent")
	}
	if res.Stages >= 1000 {
		t.Errorf("ran all %d stages despite plateau", res.Stages)
	}
}

func TestMinimizeMoveCap(t *testing.T) {
	rng := NewRand(15)
	s := newTour(10, rng)
	res, err := Minimize(s, Options{
		Cooling:       Geometric{T0: 1, Alpha: 0.99, NumStages: 100},
		MovesPerStage: 100,
		MaxMoves:      123,
		RNG:           rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != 123 || !res.CapStop {
		t.Errorf("Moves = %d CapStop = %v, want 123, true", res.Moves, res.CapStop)
	}
}

func TestMinimizeErrors(t *testing.T) {
	s := newTour(5, NewRand(17))
	if _, err := Minimize(s, Options{MovesPerStage: 10}); err != ErrNoCooling {
		t.Errorf("missing cooling: err = %v", err)
	}
	if _, err := Minimize(s, Options{Cooling: Constant{T: 1, NumStages: 5}}); err == nil {
		t.Error("zero MovesPerStage accepted")
	}
}

func TestMinimizeNoMovesProblem(t *testing.T) {
	s := &tourState{perm: []int{0}} // Propose returns ok=false
	res, err := Minimize(s, Options{
		Cooling:       Constant{T: 1, NumStages: 5},
		MovesPerStage: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != 0 {
		t.Errorf("moves = %d on an immovable problem", res.Moves)
	}
}

func TestMinimizeDeterministicBySeed(t *testing.T) {
	run := func(seed int64) float64 {
		rng := NewRand(seed)
		s := newTour(10, rng)
		res, err := Minimize(s, Options{
			Cooling:       Geometric{T0: 2, Alpha: 0.9, NumStages: 40},
			MovesPerStage: 50,
			RNG:           rng,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalCost
	}
	if run(99) != run(99) {
		t.Error("same seed produced different results")
	}
}

// The engine's accept/reject loop must not allocate: Propose/Apply keep
// the priced move in the problem's own fields, and best-tracking reuses
// the Snapshotter double buffer. A whole Minimize run over a
// pre-allocated problem is therefore allocation-free.
func TestMinimizeZeroAllocs(t *testing.T) {
	rng := NewRand(41)
	s := newTour(16, rng)
	opt := Options{
		Cooling:       Geometric{T0: 1, Alpha: 0.9, NumStages: 20},
		MovesPerStage: 50,
		RNG:           rng,
	}
	// Warm up once so lazy runtime initialization is not charged.
	if _, err := Minimize(s, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Minimize(s, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Minimize allocated %.1f times per run, want 0", allocs)
	}
}

// Property: the accepted-move count never exceeds the proposed count and
// the final cost is never above initial when the problem snapshots.
func TestQuickMinimizeInvariants(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN%12) + 2
		rng := NewRand(seed)
		s := newTour(n, rng)
		res, err := Minimize(s, Options{
			Cooling:       Geometric{T0: 1, Alpha: 0.85, NumStages: 20},
			MovesPerStage: 30,
			RNG:           rng,
		})
		if err != nil {
			return false
		}
		return res.Accepted <= res.Moves && res.FinalCost <= res.InitialCost+1e-9 && res.BestCost <= res.InitialCost+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
