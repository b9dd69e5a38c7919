package anneal

import "math"

// Run is the stage bookkeeping of one annealing run: the stage index, the
// plateau count, the MaxMoves budget and the Result. It states the
// paper's stopping rules once for every annealing loop — Minimize, and the
// packet scheduler's loop that anneals restarts side by side and acts
// between their stages. A loop drives a Run one temperature stage at a
// time:
//
//	r.Start(opt, p.Cost(), snap)
//	for {
//		temp, inv, budget, ok := r.Begin()
//		if !ok {
//			break
//		}
//		... propose up to budget moves at temp, deciding each with Accept,
//		    and save the state whenever the cost drops below r.BestCost ...
//		if !r.End(cost, best, moves, accepted, exhausted) {
//			break
//		}
//	}
//	res := r.Finish()
//
// The move loop keeps its counters in locals and hands them to End once
// per stage. A Run is plain data: it never allocates and never draws
// from an RNG.
type Run struct {
	Result
	// Cost is the current cost, the initial cost plus every accepted
	// delta. It never drops below BestCost.
	Cost float64

	opt  Options
	snap Snapshotter
	// stage is the index of the next stage; plateau counts the
	// consecutive stages that ended within PlateauEps of the cost the
	// stage before them ended at, stageCost.
	stage, plateau int
	stageCost      float64
}

// Start begins a run at the initial cost under opt, which must carry a
// Cooling schedule and a positive MovesPerStage (Minimize checks both).
// snap, when non-nil, is the state's keep-best buffer: Start saves the
// initial state as the best so far, and Finish restores the best.
func (r *Run) Start(opt Options, cost float64, snap Snapshotter) {
	*r = Run{Result: Result{InitialCost: cost, BestCost: cost}, Cost: cost,
		opt: opt, snap: snap, stageCost: cost}
	if snap != nil {
		snap.SaveBest()
	}
}

// Begin opens the next temperature stage. It returns the stage's
// temperature, its reciprocal (Accept's inv) and how many moves the stage
// may propose: MovesPerStage, cut to what is left of MaxMoves. ok is false
// when the cooling schedule has no stage left.
func (r *Run) Begin() (temp, inv float64, budget int, ok bool) {
	if r.stage >= r.opt.Cooling.Stages() {
		return 0, 0, 0, false
	}
	r.Stages = r.stage + 1
	temp = r.opt.Cooling.Temperature(r.stage)
	budget = r.opt.MovesPerStage
	if left := r.opt.MaxMoves - r.Moves; r.opt.MaxMoves > 0 && left < budget {
		budget = left
	}
	return temp, 1 / temp, budget, true
}

// End closes the stage Begin opened. The loop proposed moves moves and
// accepted accepted of them, leaving the state at cost with best the
// lowest cost seen; exhausted reports that the problem ran out of moves
// before the budget did, and otherwise moves is the whole budget. End
// reports whether another stage follows: the run ends when the problem
// is exhausted, when MaxMoves cut the stage (a budget used up exactly at
// a stage's end stops the run one empty stage later), when PlateauStages
// consecutive stages end within PlateauEps of the previous stage's cost,
// or when the cooling schedule runs out.
func (r *Run) End(cost, best float64, moves, accepted int, exhausted bool) bool {
	r.Cost, r.BestCost = cost, best
	r.Moves += moves
	r.Accepted += accepted
	if exhausted {
		return false
	}
	if moves < r.opt.MovesPerStage { // only MaxMoves cuts a budget
		r.CapStop = true
		return false
	}
	if r.opt.PlateauStages > 0 {
		if math.Abs(cost-r.stageCost) <= r.opt.PlateauEps {
			r.plateau++
			if r.plateau >= r.opt.PlateauStages {
				r.PlateauStop = true
				return false
			}
		} else {
			r.plateau = 0
		}
		r.stageCost = cost
	}
	r.stage++
	return r.stage < r.opt.Cooling.Stages()
}

// Finish ends the run with the keep-best rule — a state that wandered
// above its best is restored to it — and returns the run's Result. Call
// it once, after the run's last stage: the one End stopped, or an earlier
// one at which a coordinator abandoned the run.
func (r *Run) Finish() Result {
	if r.snap != nil && r.BestCost < r.Cost {
		r.snap.RestoreBest()
		r.Cost = r.BestCost
	}
	r.FinalCost = r.Cost
	return r.Result
}
