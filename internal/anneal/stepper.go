package anneal

import (
	"fmt"
	"math"
)

// Stepper is the annealing loop, one temperature stage per Step call, so
// a coordinator can interleave work between stages: publish the best
// cost to a shared incumbent, abandon a dominated run, or exchange replica
// states for parallel tempering. Minimize is a Stepper driven to
// completion:
//
//	st.Reset(p, opt); for st.Step() {}; res := st.Result()
//
// A Stepper is single-goroutine state. A coordinator that runs several
// Steppers steps them in turn and acts between stages.
type Stepper struct {
	p   Problem
	opt Options
	rng *Rand

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
		rng = NewRand(opt.Seed)
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
// called.
func (st *Stepper) Step() bool {
	if st.stopped || st.stage >= st.opt.Cooling.Stages() {
		st.stopped = true
		return false
	}
	stage := st.stage
	temp := st.opt.Cooling.Temperature(stage)
	inv := 1 / temp // bracket multiplies by it instead of dividing per move
	// The move loop runs on locals and writes them back once per stage:
	// reading the fields through st on every move is measurably slower.
	p, rng, res, cost := st.p, st.rng, st.res, st.cost
	moves, maxMoves, onMove := st.opt.MovesPerStage, st.opt.MaxMoves, st.opt.OnMove
	snapper, canSnapshot := st.snapper, st.canSnapshot
	res.Stages = stage + 1
	more := true
	for k := 0; k < moves; k++ {
		if maxMoves > 0 && res.Moves >= maxMoves {
			res.CapStop = true
			more = false
			break
		}
		delta, ok := p.Propose(rng)
		if !ok {
			more = false
			break
		}
		res.Moves++
		accepted := Accept(rng.Float64(), delta, temp, inv)
		if accepted {
			p.Apply()
			res.Accepted++
			cost += delta
			if cost < res.BestCost {
				res.BestCost = cost
				if canSnapshot {
					snapper.SaveBest()
				}
			}
		}
		if onMove != nil {
			onMove(MoveInfo{
				Move:     res.Moves - 1,
				Stage:    stage,
				Temp:     temp,
				Delta:    delta,
				Accepted: accepted,
				Cost:     cost,
			})
		}
	}
	st.res, st.cost = res, cost
	if !more {
		st.stopped = true
		return false
	}
	if st.opt.PlateauStages > 0 {
		if math.Abs(cost-st.prevStageCost) <= st.opt.PlateauEps {
			st.plateau++
			if st.plateau >= st.opt.PlateauStages {
				st.res.PlateauStop = true
				st.stopped = true
				st.stage++
				return false
			}
		} else {
			st.plateau = 0
		}
		st.prevStageCost = cost
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
