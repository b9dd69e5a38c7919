// Package anneal implements the simulated-annealing minimizer used by the
// packet scheduler of D'Hollander & Devis (ICPP 1991).
//
// The engine is deliberately generic: a Problem exposes its current cost,
// a way to price random elementary moves and a way to commit the accepted
// ones; a Cooling schedule produces the temperature sequence; Minimize
// runs the Glauber acceptance dynamics of the paper's equation (1),
//
//	B(ΔF, T) = 1 / (1 + exp(ΔF/T)),
//
// which accepts improving moves with probability > ½ (not always!) and
// worsening moves with probability < ½; at T → 0 it degenerates into
// strict descent and at T → ∞ into a coin flip. AcceptProb states the
// rule; Accept decides a move by it from a table of logit-bucket bounds
// and evaluates the exponential only for the rare move the table leaves
// open.
package anneal

import (
	"errors"
	"fmt"
	"math"
)

// Problem is a mutable optimization state. Implementations carry their own
// state; the engine never copies it (except through the optional
// Snapshotter interface).
//
// The Propose/Apply contract is designed so the accept/reject loop performs
// no heap allocations and a rejected move writes nothing: Propose prices a
// move without changing the state and records it in the Problem's own
// pre-allocated fields, and Apply commits that recorded move.
type Problem interface {
	// Cost returns the current total cost of the state.
	Cost() float64
	// Propose draws one random elementary move and returns the cost
	// change it would make, leaving the state as it was. ok reports
	// whether a move was possible at all; when ok is false the engine
	// stops.
	Propose(rng *Rand) (delta float64, ok bool)
	// Apply commits the move evaluated by the most recent Propose call.
	// Callers invoke Apply at most once per proposed move, before the
	// next Propose (the engine applies accepted moves only).
	Apply()
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
}

// DefaultOptions returns the paper's engine configuration (§6a): 60
// geometric cooling stages from T0 = 1 with α = 0.9, plateau patience of 5
// stages, and a 20 000-move cap. assign.SolveMapping and
// assign.SolveBalancing start from it when their options name no
// schedule; the packet scheduler takes only its cooling schedule from it.
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
// loop decides moves with Accept, which returns exactly
// u < AcceptProb(delta, temp) but evaluates AcceptProb only when its
// logit-bucket table cannot settle the comparison.
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

// Accept's table has K = acceptBuckets logit buckets, a power of two so
// that a bucket index is a scaling and a mask, and moves each bound l
// outward by the margin m = bucketMargin·(1+|l|).
const (
	acceptBuckets = 2048
	bucketMargin  = 1e-9
)

// acceptTable holds, for bucket k = ⌊u·K⌋ covering u ∈ [k/K, (k+1)/K),
// the x = ΔF/T below which every u of the bucket accepts,
// lo = logit((k+1)/K) − m, and above which every u of it rejects,
// hi = logit(k/K) + m, with logit(v) = ln((1−v)/v). The ends are
// infinite: lo[K−1] = −Inf and hi[0] = +Inf. lo and hi sit side by side,
// so a decision reads one cache line.
var acceptTable [acceptBuckets]struct{ lo, hi float64 }

func init() {
	for k := range acceptTable {
		lo, hi := math.Log(float64(acceptBuckets-k-1)/float64(k+1)), math.Log(float64(acceptBuckets-k)/float64(k))
		acceptTable[k].lo = lo - float64(bucketMargin*(1+math.Abs(lo)))
		acceptTable[k].hi = hi + float64(bucketMargin*(1+math.Abs(hi)))
	}
}

// Accept decides one Glauber move: it returns exactly
// u < AcceptProb(delta, temp) for every float64 input. inv must be 1/temp,
// which an annealing loop computes once per stage (Run.Begin returns it).
// Minimize is its only caller outside tests: the packet scheduler decides
// its moves inside Column.Stage and Grid.Stage, which inline this test,
// and checkAccept holds each kernel's decision equal to Accept's.
//
// P(x) = 1/(1+e^x) falls with x, so u < P(x) exactly when x < logit(u).
// For u in bucket k, logit(u) lies in (logit((k+1)/K), logit(k/K)], so
// x = delta·inv below the bucket's lo accepts and above its hi rejects,
// with no exp, division or call. Any other x, a u outside [0, 1) or NaN,
// and an inv that is not a positive normal float64 (temp ≤ 0, +Inf, NaN,
// subnormal, or so large that 1/temp is subnormal) fall back to
// AcceptProb: about 1/K of the moves with |x| < 7.7, whose P(x) lies in
// u's bucket.
//
// The margin m makes a table decision agree with the rounded AcceptProb,
// not only with the true P. It covers:
//
//   - x = delta·inv is rounded twice and AcceptProb's delta/temp once,
//     so they differ by at most 3·2⁻⁵³·|x|, about 2 ulps (2.6e-15 at
//     |x| ≤ 7.7, the largest finite bound), plus 2⁻¹⁰⁷⁴ on underflow;
//   - math.Log and the quotient in a bound are each off by about an ulp,
//     3e-15 together;
//   - AcceptProb's rounding, within 2ε relative (ε = 2⁻⁵², from Exp, the
//     add and the divide). An x at least d = m/2 below logit(v),
//     v = (k+1)/K, has P ≥ v·(1 + (1−v)·d·(1−d)), so the rounded P still
//     exceeds every u < v when (1−v)·d > 2ε. The bucket next to u = 1 has
//     1−v = 1/K, so m must exceed 4ε·K ≈ 1.8e-12; the reject side at
//     u ≥ k/K mirrors it. m ≥ 1e-9 is 550 times that.
//
// AcceptProb clamps |x| > 700 to exactly 0 or 1, and the table agrees:
// its finite bounds lie within ±7.7, so it accepts only below 7.7 and
// rejects only above −7.7.
func Accept(u, delta, temp, inv float64) bool {
	if decided, ok := tableDecide(u, delta, inv); decided {
		return ok
	}
	return u < AcceptProb(delta, temp)
}

// tableDecide is Accept's fast path: decided reports whether the bucket
// of u settles the test, and ok is then the decision.
func tableDecide(u, delta, inv float64) (decided, ok bool) {
	if u >= 0 && u < 1 && inv >= 0x1p-1022 && inv <= math.MaxFloat64 {
		b := &acceptTable[int(u*acceptBuckets)&(acceptBuckets-1)]
		x := delta * inv
		if x < b.lo {
			return true, true
		}
		if x > b.hi {
			return true, false
		}
	}
	return false, false
}

// Minimize runs simulated annealing on p and returns run statistics. The
// Problem is left in its final (or best, for Snapshotters) state. Its
// stage, plateau, move-cap and keep-best rules are Run's, the ones the
// packet scheduler's own loop drives, so Minimize, run on the core tests'
// reference packet, is what that loop and its kernels are held to.
func Minimize(p Problem, opt Options) (Result, error) {
	if opt.Cooling == nil {
		return Result{}, ErrNoCooling
	}
	if opt.MovesPerStage <= 0 {
		return Result{}, fmt.Errorf("anneal: MovesPerStage = %d, want > 0", opt.MovesPerStage)
	}
	rng := opt.RNG
	if rng == nil {
		rng = NewRand(opt.Seed)
	}
	snap, _ := p.(Snapshotter)
	var r Run
	r.Start(opt, p.Cost(), snap)
	for {
		temp, inv, budget, ok := r.Begin()
		if !ok {
			break
		}
		cost, best := r.Cost, r.BestCost
		moves, accepted, exhausted := 0, 0, false
		for ; moves < budget; moves++ {
			delta, ok := p.Propose(rng)
			if !ok {
				exhausted = true
				break
			}
			if Accept(rng.Float64(), delta, temp, inv) {
				p.Apply()
				accepted++
				cost += delta
				if cost < best {
					best = cost
					if snap != nil {
						snap.SaveBest()
					}
				}
			}
		}
		if !r.End(cost, best, moves, accepted, exhausted) {
			break
		}
	}
	return r.Finish(), nil
}
