// Package anneal implements the simulated-annealing minimizer used by the
// packet scheduler of D'Hollander & Devis (ICPP 1991).
//
// The engine is deliberately generic: a Problem exposes its current cost
// and a way to propose (and undo) random elementary moves; a Cooling
// schedule produces the temperature sequence; Minimize runs the Glauber
// acceptance dynamics of the paper's equation (1),
//
//	B(ΔF, T) = 1 / (1 + exp(ΔF/T)),
//
// which accepts improving moves with probability > ½ (not always!) and
// worsening moves with probability < ½; at T → 0 it degenerates into
// strict descent and at T → ∞ into a coin flip.
package anneal

import (
	"errors"
	"math"
)

// Problem is a mutable optimization state. Implementations carry their own
// state; the engine never copies it (except through the optional
// Snapshotter interface).
//
// The Propose/Undo contract is designed so the accept/reject loop performs
// no heap allocations: a Problem records whatever it needs to revert the
// last move in its own pre-allocated state instead of returning a closure.
type Problem interface {
	// Cost returns the current total cost of the state.
	Cost() float64
	// Propose applies one random elementary move to the state and returns
	// the resulting cost change. ok reports whether a move was possible at
	// all; when ok is false the engine stops.
	Propose(rng *Rand) (delta float64, ok bool)
	// Undo reverts the move applied by the most recent Propose call.
	// Callers invoke Undo at most once per proposed move, before the next
	// Propose (the engine undoes rejected moves).
	Undo()
}

// Snapshotter is an optional extension of Problem. When implemented, the
// engine tracks the best state seen and restores it before returning, so a
// late uphill wander cannot degrade the final answer. Implementations keep
// one reusable "best" buffer (a double buffer of the mutable state), so
// tracking the best mapping costs copies, never allocations.
type Snapshotter interface {
	// SaveBest records the current state as the best seen so far,
	// overwriting the previous best.
	SaveBest()
	// RestoreBest replaces the current state with the last saved best.
	RestoreBest()
}

// MoveInfo describes one proposed move; it is passed to the OnMove
// observer, which the packet scheduler uses to record the Figure 1 cost
// trajectories.
type MoveInfo struct {
	Move     int     // global move index, 0-based
	Stage    int     // temperature stage index, 0-based
	Temp     float64 // temperature at which the move was proposed
	Delta    float64 // proposed cost change
	Accepted bool
	Cost     float64 // cost after the accept/reject decision
}

// Options configures Minimize. The zero value is not usable; use
// DefaultOptions as a starting point.
type Options struct {
	Cooling Cooling
	// MovesPerStage is the number of elementary moves proposed at each
	// temperature.
	MovesPerStage int
	// PlateauStages stops the search early once this many consecutive
	// temperature stages end with an unchanged cost (the paper stops "when
	// the cost function remains constant for five iterations"). Zero
	// disables the plateau rule.
	PlateauStages int
	// PlateauEps is the cost tolerance of the plateau rule.
	PlateauEps float64
	// MaxMoves caps the total number of proposed moves ("a preset maximum
	// number", §6a). Zero means no cap.
	MaxMoves int
	// RNG is the random source; if nil, a source seeded with Seed is used.
	RNG  *Rand
	Seed int64
	// OnMove, when non-nil, observes every proposed move.
	OnMove func(MoveInfo)
}

// DefaultOptions returns the engine configuration used throughout the
// reproduction: 60 geometric cooling stages from T0 = 1 with α = 0.9,
// plateau patience of 5 stages, and a 20 000-move cap.
func DefaultOptions() Options {
	return Options{
		Cooling:       Geometric{T0: 1, Alpha: 0.9, NumStages: 60},
		MovesPerStage: 50,
		PlateauStages: 5,
		PlateauEps:    1e-12,
		MaxMoves:      20000,
	}
}

// Result reports what a Minimize run did.
type Result struct {
	// FinalCost is the cost of the state left in the Problem when
	// Minimize returned (the best seen, if the Problem is a Snapshotter).
	FinalCost float64
	// BestCost is the lowest cost observed during the run.
	BestCost float64
	// InitialCost is the cost before the first move.
	InitialCost float64
	Moves       int  // proposed moves
	Accepted    int  // accepted moves
	Stages      int  // temperature stages executed
	PlateauStop bool // true if the plateau rule ended the run
	CapStop     bool // true if MaxMoves ended the run
}

// ErrNoCooling is returned when Options.Cooling is nil.
var ErrNoCooling = errors.New("anneal: no cooling schedule")

// AcceptProb evaluates the paper's equation (1), the probability of
// accepting a move with cost change delta at temperature temp. Boundary
// behaviour follows equation (2): at temp = 0 the move is accepted iff
// delta < 0; at temp = +Inf the probability is ½.
//
// AcceptProb is the specification of the acceptance rule. The annealing
// loop decides moves with accept, which returns exactly
// u < AcceptProb(delta, temp) but calls math.Exp only when a cheap
// bracket of the exponential cannot settle the comparison.
func AcceptProb(delta, temp float64) float64 {
	if temp <= 0 {
		if delta < 0 {
			return 1
		}
		return 0
	}
	if math.IsInf(temp, 1) {
		return 0.5
	}
	x := delta / temp
	// Guard exp overflow for extreme ratios.
	if x > 700 {
		return 0
	}
	if x < -700 {
		return 1
	}
	return 1 / (1 + math.Exp(x))
}

// acceptMargin is the relative guard band of accept's bracket. It must
// exceed the rounding error of the bracket bounds and of AcceptProb's own
// evaluation (a few ulps each, about 1e-14 relative) by a wide factor, so
// that a decision taken from the bounds always agrees with the rounded
// AcceptProb. It must also stay small, because a u inside the band costs
// a math.Exp.
const acceptMargin = 1e-9

// expRemainder bounds the Taylor remainder of e^z after the degree-4
// term: Σ_{k≥5} z^k/k! ≤ e^z·z⁵/120 ≤ (e/120)·z⁵ < 0.023·z⁵ for z ≤ 1.
const expRemainder = 0.023

// accept decides one Glauber move: it returns exactly
// u < AcceptProb(delta, temp) for every float64 input, calling math.Exp
// only when bracket cannot settle the comparison. inv must be 1/temp,
// which the annealing loop computes once per stage.
func accept(u, delta, temp, inv float64) bool {
	if decided, ok := bracket(u, delta, temp, inv); decided {
		return ok
	}
	return u < AcceptProb(delta, temp)
}

// bracket tries to decide u < AcceptProb(delta, temp) without math.Exp
// or a division. With x = delta·inv (inv = 1/temp), y = |x| and z = y/8
// it brackets e^y between multiply-only bounds,
//
//	lo = T4(z)⁸               ≤ e^y   (T4 the degree-4 Taylor polynomial; all z ≥ 0)
//	hi = (T4(z) + 0.023·z⁵)⁸  ≥ e^y   (z ≤ 1)
//
// and rewrites the acceptance test without a division: u·(1+e^y) < 1 for
// x ≥ 0 (P = 1/(1+e^y)) and u·(1+e^y) < e^y for x < 0 (P = e^y/(1+e^y)).
// A decision is taken from a bound only when it holds with relative
// margin acceptMargin. decided is false when u lands inside the band, for
// a NaN anywhere, and for temp ≤ 0 or +Inf; accept then evaluates
// AcceptProb. See PERFORMANCE.md §15 for the derivation, why x may differ
// from delta/temp by 2 ulps, and the measured fallback rate.
func bracket(u, delta, temp, inv float64) (decided, ok bool) {
	if !(temp > 0) || math.IsInf(temp, 1) {
		return false, false
	}
	x := delta * inv
	if inv > math.MaxFloat64 {
		x = delta / temp // 1/temp overflowed: temp < 2⁻¹⁰²⁴ is subnormal
	}
	z := math.Abs(x) * 0.125
	// T4(z) = 1 + z + z²/2 + z³/6 + z⁴/24 in Estrin form: a shorter
	// dependency chain than Horner's rule, and this chain gates the
	// accept/reject branch.
	z2 := z * z
	t4 := (1 + z) + z2*((0.5+z*(1.0/6))+z2*(1.0/24))
	lo := t4 * t4
	lo *= lo
	lo *= lo
	if x >= 0 {
		if u*(1+lo) >= 1+acceptMargin {
			return true, false // u·(1+e^y) ≥ u·(1+lo) > 1
		}
		if z <= 1 && u*(1+upperExp(t4, z, z2)) < 1-acceptMargin {
			return true, true // u·(1+e^y) ≤ u·(1+hi) < 1
		}
		return false, false
	}
	if u*(1+lo) < lo*(1-acceptMargin) {
		return true, true // u < lo/(1+lo) ≤ e^y/(1+e^y)
	}
	if z <= 1 {
		if hi := upperExp(t4, z, z2); u*(1+hi) >= hi*(1+acceptMargin) {
			return true, false // u > hi/(1+hi) ≥ e^y/(1+e^y)
		}
	}
	return false, false
}

// upperExp returns (t4 + 0.023·z⁵)⁸ ≥ e^(8z), valid for 0 ≤ z ≤ 1, where
// t4 is the degree-4 Taylor polynomial of e^z and z2 = z².
func upperExp(t4, z, z2 float64) float64 {
	hi := t4 + expRemainder*z2*z2*z
	hi *= hi
	hi *= hi
	return hi * hi
}

// Minimize runs simulated annealing on p and returns run statistics. The
// Problem is left in its final (or best, for Snapshotters) state. It
// drives a Stepper to completion, so the two share one accept/reject loop.
func Minimize(p Problem, opt Options) (Result, error) {
	var st Stepper
	if err := st.Reset(p, opt); err != nil {
		return Result{}, err
	}
	for st.Step() {
	}
	return st.Result(), nil
}
