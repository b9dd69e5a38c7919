package anneal

import (
	"math"
	"math/bits"
)

// Column is the state of a packet with one idle processor: n ≥ 2
// candidates compete for the single slot, the mapping is the candidate
// Cur on it, and every move exchanges Cur for another candidate. About
// four annealing moves in five of the paper's programs fall in such
// packets, so Stage anneals them in one function with no call per move.
type Column struct {
	// C[i] is the eq. 6 cost of the mapping with candidate i on the slot.
	// It has length n, and n must be below 2³¹.
	C []float64
	// N and N1 are the divisors of Intn(n) and Intn(n−1).
	N, N1 Bound

	// The state: the candidate on the slot, the running cost and the
	// lowest cost seen.
	Cur        int
	Cost, Best float64
	// The keep-best snapshot, which Stage writes whenever an accepted move
	// takes Cost below Best.
	BestCur int
	// Delta is the price of the last move Stage made, accepted or not: a
	// traced run anneals with budget 1 and records it per move.
	Delta float64
}

// ring is Rand's feedback register as three values that an inlined draw
// updates in the caller's registers: the tap and feed indices live in
// the caller's locals, not behind r.
type ring struct {
	tap, feed int
	vec       *[rngLen]int64
}

// int63 is Rand.Int63 on the ring: it returns the advanced ring and the
// draw.
func (g ring) int63() (ring, int64) {
	g.tap--
	if g.tap < 0 {
		g.tap += rngLen
	}
	g.feed--
	if g.feed < 0 {
		g.feed += rngLen
	}
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return g, x & rngMask
}

// mod returns v mod n by Lemire's method, as Draw does after its Int31
// rejection loop. Draw masks a power-of-two n instead, but there max is
// 2³¹−1, so no draw is rejected, and M·v·n takes exactly v mod n: both
// paths return the same value and consume one draw.
func (b Bound) mod(v int64) int {
	hi, _ := bits.Mul64(b.m*uint64(v), b.n)
	return int(hi)
}

// Stage anneals one temperature stage of col: budget moves at temperature
// temp, with inv = 1/temp (the values Run.Begin returns), drawing from r.
// It returns how many moves it accepted and leaves the price of the last
// move in Delta.
//
// Every move is the packet's §5.2a move on its one slot, decided as Accept
// decides, and is held to the reference move the core package's tests
// keep: Propose, then Accept, then Apply. It draws Intn(n), Intn(n−1)
// when the first draw hit Cur, the slot draw Intn(1) (one Int63) and
// Float64, in that order, and prices the move (C[i] + 0) − (0 + C[Cur]),
// so col and r end where that reference would leave them, to the bit.
// It keeps no raw eq. 3 or eq. 5 sum: a traced run updates those from the
// move it reads back (core.Scheduler.annealStage).
//
// The draws, the bucket lookup of Accept and the move run inline, with
// the ring's indices and the state in locals. The decision is x < lo of
// u's bucket, and the move is applied by selects on it, not by a branch:
// about a third of the moves are accepted, with no pattern a predictor
// could learn, so a branch on the decision is often mispredicted. Only x
// in the bucket's band, or an inv that is not a positive normal float64,
// branches to Accept's exact rule, u < AcceptProb(delta, temp).
func (col *Column) Stage(r *Rand, temp, inv float64, budget int) (accepted int) {
	c := col.C
	n := len(c)
	bn, bn1 := col.N, col.N1
	if n < 2 || bn.n != uint64(n) || bn.m == 0 || bn1.n != uint64(n-1) {
		panic("anneal: Column needs 2 ≤ n < 2³¹ candidates and the divisors of n and n−1")
	}
	if !(inv >= 0x1p-1022 && inv <= math.MaxFloat64) {
		// Accept decides every move exactly at such an inv; a NaN x sends
		// every move to the band test's exact branch.
		inv = math.NaN()
	}
	g := ring{r.tap, r.feed, &r.vec}
	cur, cost, best, last := col.Cur, col.Cost, col.Best, col.Delta
	for k := budget; k > 0; k-- {
		// i := r.Draw(&col.N), and when it hits cur the move takes the
		// candidate r.Draw(&col.N1) places after it.
		var x int64
		for {
			if g, x = g.int63(); int32(x>>32) <= bn.max {
				break
			}
		}
		i := bn.mod(x >> 32)
		if i == cur {
			for {
				if g, x = g.int63(); int32(x>>32) <= bn1.max {
					break
				}
			}
			if i += 1 + bn1.mod(x>>32); i >= n {
				i -= n
			}
		}
		g, _ = g.int63() // the slot draw: Intn(1) has one value
		u := 1.0
		for u == 1 { // Float64's resample; taken O(never)
			g, x = g.int63()
			u = float64(x) / (1 << 63)
		}
		delta := (c[i] + 0) - (0 + c[cur])
		last = delta

		// Accept, inline: a is 1 to accept and 0 to reject, set without a
		// branch when x falls outside the band of u's bucket.
		b := &acceptTable[int(u*acceptBuckets)&(acceptBuckets-1)]
		xd := delta * inv
		var a, above uint64
		if xd < b.lo {
			a = 1
		}
		if xd > b.hi {
			above = 1
		}
		if a|above == 0 && u < AcceptProb(delta, temp) {
			a = 1
		}
		m := -a
		cost = pick(m, cost+delta, cost)
		cur ^= (cur ^ i) & int(m)
		accepted += int(a)
		if cost < best {
			best = cost
			col.BestCur = cur
		}
	}
	r.tap, r.feed = g.tap, g.feed
	col.Cur, col.Cost, col.Best, col.Delta = cur, cost, best, last
	return accepted
}

// pick returns a where the mask m is all ones and b where it is zero,
// without a branch.
func pick(m uint64, a, b float64) float64 {
	ab, bb := math.Float64bits(a), math.Float64bits(b)
	return math.Float64frombits(bb ^ (ab^bb)&m)
}
