package core

import (
	"math"

	"repro/internal/anneal"
)

// singleSlot reports whether annealSingleSlot anneals pk: a single run
// (no restarts) of a packet with one idle processor, at least two
// candidates and a candidate on the slot (every init places one), with
// no per-move observer (neither RecordTrace nor a caller's
// Anneal.OnMove). Four in five annealing moves of the catalog programs
// fall in such packets (PERFORMANCE.md §25).
func (s *Scheduler) singleSlot(pk *packet, aopt anneal.Options) bool {
	return s.opt.Restarts <= 1 && len(pk.procs) == 1 && len(pk.tasks) >= 2 &&
		pk.taskAt[0] >= 0 && aopt.OnMove == nil && !s.opt.RecordTrace
}

// annealSingleSlot is the Stepper loop of a single run fused with the
// packet's moves for a one-processor packet. The whole mapping is the
// candidate cur on the slot, every move exchanges it for another
// candidate i, and its delta is (c[i] + 0) − (0 + c[cur]), the
// expression Propose evaluates for that move. The kernel draws what
// Propose draws, in the same order, decides with anneal.Accept, and
// keeps the Stepper's stage, plateau, move-cap and keep-best rules and
// the scheduler's barrier polls of Interrupt and Bound, so the mapping,
// the running components and the report equal the general path's bit for
// bit (FuzzSingleSlotMatchesStepper).
func (s *Scheduler) annealSingleSlot(pk *packet, aopt anneal.Options, report *PacketReport) {
	rng, n := s.rng, len(pk.tasks)
	c, lv, cc := pk.contrib[:n], pk.level[:n], pk.commCost[:n] // p = 1: column 0
	init := pk.taskAt[0]
	cur, fb, fc, cost := init, pk.rawFb, pk.rawFc, pk.Cost()
	best, bestFb, bestFc, bestCost := cur, fb, fc, cost
	moves, accepted, stages, plateau, prevStageCost := 0, 0, 0, 0, cost
	numStages, perStage, maxMoves := aopt.Cooling.Stages(), aopt.MovesPerStage, aopt.MaxMoves
	plateauStop := false
	for stage := 0; ; stage++ {
		more := stage < numStages
		if more {
			temp := aopt.Cooling.Temperature(stage)
			inv := 1 / temp
			stages = stage + 1
			for k := 0; k < perStage; k++ {
				if maxMoves > 0 && moves >= maxMoves {
					more = false
					break
				}
				i := rng.Draw(&pk.drawN)
				if i == cur {
					i = wrap(i+1+rng.Draw(&pk.drawN1), n)
				}
				rng.Int63() // the slot draw: Draw(&pk.drawP) is Intn(1), one value
				delta := (c[i] + 0) - (0 + c[cur])
				moves++
				if anneal.Accept(rng.Float64(), delta, temp, inv) {
					accepted++
					// Apply's remove(cur) then place(i, 0), in its order.
					fb, fc = fb+lv[cur]-lv[i], fc-cc[cur]+cc[i]
					cur = i
					cost += delta
					if cost < bestCost {
						best, bestFb, bestFc, bestCost = cur, fb, fc, cost
					}
				}
			}
			if more && aopt.PlateauStages > 0 {
				if math.Abs(cost-prevStageCost) <= aopt.PlateauEps {
					plateau++
					plateauStop = plateau >= aopt.PlateauStages
					more = !plateauStop
				} else {
					plateau = 0
				}
				prevStageCost = cost
			}
			more = more && stage+1 < numStages
		}
		if s.stopAtBarrier() || !more {
			break
		}
	}
	if bestCost < cost {
		cur, fb, fc, cost = best, bestFb, bestFc, bestCost
	}
	pk.procOf[init], pk.procOf[cur], pk.taskAt[0] = -1, 0, cur
	pk.rawFb, pk.rawFc = fb, fc
	report.Moves, report.Accepted, report.Stages = moves, accepted, stages
	report.FinalCost, report.PlateauStop, report.Restart = cost, plateauStop, 0
}
