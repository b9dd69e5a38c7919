package anneal

import "math"

// Grid is the state of a packet with n ≥ 1 candidates and p ≥ 2 idle
// processors. Every move relocates a candidate to another slot, or swaps
// it with the candidate on that slot (the paper's §5.2a moves), and Stage
// anneals such packets in one function with no call per move.
type Grid struct {
	// C is the n × p row-major table of eq. 6 contributions: C[i*p+j] is
	// that of candidate i on slot j.
	C []float64
	// The mapping, which Stage updates in place: TaskAt[j] is the
	// candidate on slot j and ProcOf[i] the slot of candidate i, −1 for
	// none. Their lengths give p and n; n must be below 2³¹.
	TaskAt, ProcOf []int
	// N, P and P1 are the divisors of Intn(n), Intn(p) and Intn(p−1).
	N, P, P1 Bound

	// The running cost and the lowest cost seen.
	Cost, Best float64
	// The keep-best snapshot of TaskAt, which Stage writes whenever an
	// accepted move takes Cost below Best.
	BestTaskAt []int
	// Delta and I are the price and the candidate of the last move Stage
	// made, accepted or not: a traced run anneals with budget 1 and reads
	// them per move.
	Delta float64
	I     int
}

// Stage anneals one temperature stage of gr: budget moves at temperature
// temp, with inv = 1/temp (the values Run.Begin returns), drawing from r.
// It returns how many moves it accepted and leaves the price and the
// candidate of the last move in Delta and I.
//
// Every move is held to the reference move the core package's tests
// keep: Propose, then Accept, then Apply. It draws Intn(n) for the
// candidate i, Intn(p) for the slot j, Intn(p−1) when j is i's own slot
// cur (taking the slot that many places after it), then Float64, in that
// order. It prices the move as Propose does, (C[i,j] + C[other,cur]) −
// (C[i,cur] + C[other,j]) with other the candidate on j. A term of an
// absent candidate or slot is +0, except the last term when other is
// absent, which Propose leaves out: there the term is −0, which leaves
// the sum as it is, to the bit. So gr and r end where that reference
// would leave them, to the bit. It keeps no raw eq. 3 or eq. 5 sum: a
// traced run updates those from the move it reads back
// (core.Scheduler.annealStage).
//
// As in Column.Stage, the draws, the bucket lookup of Accept and the move
// run inline, the decision is x < lo of u's bucket, and the move is
// applied by selects on it, not by a branch: the four mapping stores are
// unconditional, each writing the old or the new value, and a store whose
// index is absent goes to index 0 before the store that may need that
// entry. Only x in the bucket's band, or an inv that is not a positive
// normal float64, branches to Accept's exact rule.
func (gr *Grid) Stage(r *Rand, temp, inv float64, budget int) (accepted int) {
	taskAt, procOf := gr.TaskAt, gr.ProcOf
	p, n := len(taskAt), len(procOf)
	c := gr.C[:n*p]
	bn, bp, bp1 := gr.N, gr.P, gr.P1
	if n < 1 || n >= 1<<31 || p < 2 || bn.n != uint64(n) || bp.n != uint64(p) || bp1.n != uint64(p-1) || len(gr.BestTaskAt) != p {
		panic("anneal: Grid needs 1 ≤ n < 2³¹ candidates, p ≥ 2 slots and the divisors of n, p and p−1")
	}
	if !(inv >= 0x1p-1022 && inv <= math.MaxFloat64) {
		// Accept decides every move exactly at such an inv; a NaN x sends
		// every move to the band test's exact branch.
		inv = math.NaN()
	}
	g := ring{r.tap, r.feed, &r.vec}
	cost, best, last, lastI := gr.Cost, gr.Best, gr.Delta, gr.I
	for k := budget; k > 0; k-- {
		// i := r.Draw(&gr.N), j := r.Draw(&gr.P), and when j is i's slot
		// the move takes the slot r.Draw(&gr.P1) places after it.
		var x int64
		for {
			if g, x = g.int63(); int32(x>>32) <= bn.max {
				break
			}
		}
		i := bn.mod(x >> 32)
		cur := procOf[i]
		for {
			if g, x = g.int63(); int32(x>>32) <= bp.max {
				break
			}
		}
		j := bp.mod(x >> 32)
		if j == cur {
			for {
				if g, x = g.int63(); int32(x>>32) <= bp1.max {
					break
				}
			}
			if j += 1 + bp1.mod(x>>32); j >= p {
				j -= p
			}
		}
		other := taskAt[j]
		u := 1.0
		for u == 1 { // Float64's resample; taken O(never)
			g, x = g.int63()
			u = float64(x) / (1 << 63)
		}

		// zc and zo are all ones when cur and other are absent; cu and ot
		// are then 0, a valid index whose terms the masks replace.
		zc, zo := uint64(cur>>63), uint64(other>>63)
		cu, ot := cur&^int(zc), other&^int(zo)
		ri, ro := i*p, ot*p
		before := posz(c[ri+cu], zc) + posz(c[ro+j], zo)
		after := c[ri+j] + negz(posz(c[ro+cu], zc), zo)
		delta := after - before
		last, lastI = delta, i

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
		im, ic, io := int(m), int(m&^zc), int(m&^zo)
		tcu, pot := taskAt[cu], procOf[ot]
		taskAt[cu] = tcu ^ (tcu^other)&ic
		taskAt[j] = other ^ (other^i)&im
		procOf[ot] = pot ^ (pot^cur)&io
		procOf[i] = cur ^ (cur^j)&im
		accepted += int(a)
		if cost < best {
			best = cost
			copy(gr.BestTaskAt, taskAt)
		}
	}
	r.tap, r.feed = g.tap, g.feed
	gr.Cost, gr.Best, gr.Delta, gr.I = cost, best, last, lastI
	return accepted
}

// posz returns +0 where the mask m is all ones and v where it is zero,
// without a branch: the term of an absent candidate or slot.
func posz(v float64, m uint64) float64 {
	return math.Float64frombits(math.Float64bits(v) &^ m)
}

// negz returns −0 where the mask m is all ones and v where it is zero,
// without a branch: a term that leaves the sum it is added to unchanged.
func negz(v float64, m uint64) float64 {
	return math.Float64frombits(math.Float64bits(v)&^m | m&(1<<63))
}
