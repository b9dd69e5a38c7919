package anneal

import (
	"fmt"
	"math"
	"math/rand"
)

// Stepper is an incremental Minimize: it runs the identical accept/reject
// dynamics, one temperature stage per Step call, so a coordinator can
// interleave work between stages — publish the best cost to a shared
// incumbent, abandon a dominated run, or exchange replica states for
// parallel tempering. A Stepper driven to completion consumes its RNG
// exactly like Minimize and leaves the Problem in the identical state:
// Result() applies the same restore-best rule, so
//
//	st := NewStepper(p, opt); for st.Step() {}; res := st.Result()
//
// is byte-for-byte equivalent to res, _ := Minimize(p, opt).
//
// A Stepper is single-goroutine state; coordinate concurrent Steppers at
// barriers, never by calling one Stepper from two goroutines.
type Stepper struct {
	p   Problem
	opt Options
	rng *rand.Rand

	res           Result
	cost          float64
	plateau       int
	prevStageCost float64
	stage         int

	snapper     Snapshotter
	canSnapshot bool
	stopped     bool
	finalized   bool
}

// NewStepper validates opt exactly like Minimize and primes the stepper:
// the initial cost is read, and for Snapshotter problems the initial state
// is saved as the incumbent best.
func NewStepper(p Problem, opt Options) (*Stepper, error) {
	st := &Stepper{}
	if err := st.Reset(p, opt); err != nil {
		return nil, err
	}
	return st, nil
}

// Reset rebinds the stepper to a (new) problem, discarding all prior run
// state — the arena idiom: a pooled Stepper Reset per run never allocates
// and is observably identical to a fresh NewStepper.
func (st *Stepper) Reset(p Problem, opt Options) error {
	if opt.Cooling == nil {
		return ErrNoCooling
	}
	if opt.MovesPerStage <= 0 {
		return fmt.Errorf("anneal: MovesPerStage = %d, want > 0", opt.MovesPerStage)
	}
	rng := opt.RNG
	if rng == nil {
		rng = rand.New(rand.NewSource(opt.Seed))
	}
	st.p = p
	st.opt = opt
	st.rng = rng
	st.res = Result{InitialCost: p.Cost()}
	st.cost = st.res.InitialCost
	st.res.BestCost = st.cost
	st.snapper, st.canSnapshot = p.(Snapshotter)
	if st.canSnapshot {
		st.snapper.SaveBest()
	}
	st.plateau = 0
	st.prevStageCost = st.cost
	st.stage = 0
	st.stopped = false
	st.finalized = false
	return nil
}

// Step executes the next temperature stage (MovesPerStage proposals) and
// reports whether the run can continue. It returns false — permanently —
// once the cooling schedule is exhausted, the plateau rule fires, the
// move cap is reached, the Problem runs out of moves, or Abandon was
// called. The loop body mirrors Minimize move for move.
func (st *Stepper) Step() bool {
	if st.stopped || st.stage >= st.opt.Cooling.Stages() {
		st.stopped = true
		return false
	}
	stage := st.stage
	temp := st.opt.Cooling.Temperature(stage)
	st.res.Stages = stage + 1
	for k := 0; k < st.opt.MovesPerStage; k++ {
		if st.opt.MaxMoves > 0 && st.res.Moves >= st.opt.MaxMoves {
			st.res.CapStop = true
			st.stopped = true
			return false
		}
		delta, ok := st.p.Propose(st.rng)
		if !ok {
			st.stopped = true
			return false
		}
		st.res.Moves++
		accepted := accept(st.rng.Float64(), delta, temp)
		if accepted {
			st.res.Accepted++
			st.cost += delta
			if st.cost < st.res.BestCost {
				st.res.BestCost = st.cost
				if st.canSnapshot {
					st.snapper.SaveBest()
				}
			}
		} else {
			st.p.Undo()
		}
		if st.opt.OnMove != nil {
			st.opt.OnMove(MoveInfo{
				Move:     st.res.Moves - 1,
				Stage:    stage,
				Temp:     temp,
				Delta:    delta,
				Accepted: accepted,
				Cost:     st.cost,
			})
		}
	}
	if st.opt.PlateauStages > 0 {
		if math.Abs(st.cost-st.prevStageCost) <= st.opt.PlateauEps {
			st.plateau++
			if st.plateau >= st.opt.PlateauStages {
				st.res.PlateauStop = true
				st.res.Stages = stage + 1
				st.stopped = true
				st.stage++
				return false
			}
		} else {
			st.plateau = 0
		}
		st.prevStageCost = st.cost
	}
	st.stage++
	if st.stage >= st.opt.Cooling.Stages() {
		st.stopped = true
		return false
	}
	return true
}

// Done reports whether the run has ended (Step returned false, or Abandon
// or Result was called).
func (st *Stepper) Done() bool { return st.stopped }

// Stage returns the index of the next stage Step would execute.
func (st *Stepper) Stage() int { return st.stage }

// Cost returns the current cost of the Problem's state.
func (st *Stepper) Cost() float64 { return st.cost }

// BestCost returns the lowest cost observed so far — the value a
// cooperative coordinator publishes to the shared incumbent.
func (st *Stepper) BestCost() float64 { return st.res.BestCost }

// SetCost overwrites the stepper's notion of the current cost. Replica
// exchange swaps the Problems' current states behind the steppers' backs;
// SetCost re-synchronizes each stepper with the state it now owns. The
// best-seen bookkeeping is untouched: exchanged states are already
// bounded by their origin replica's best.
func (st *Stepper) SetCost(c float64) { st.cost = c }

// Abandon ends the run early: Step returns false from now on and Result
// finalizes with the statistics accumulated so far. A cooperative
// coordinator abandons a restart whose best cost has trailed the shared
// incumbent for long enough.
func (st *Stepper) Abandon() { st.stopped = true }

// Result finalizes the run — applying Minimize's restore-best rule, so a
// Snapshotter Problem is left in its best state — and returns the run
// statistics. Idempotent; Step must not be called afterwards.
func (st *Stepper) Result() Result {
	if !st.finalized {
		st.finalized = true
		st.stopped = true
		if st.canSnapshot && st.res.BestCost < st.cost {
			st.snapper.RestoreBest()
			st.cost = st.res.BestCost
		}
		st.res.FinalCost = st.cost
	}
	return st.res
}
