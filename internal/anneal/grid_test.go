package anneal

import (
	"math"
	"slices"
	"testing"
)

// gridStep runs Grid.Stage for one move at temp whose draws are the given
// Int63 values, written into a zero ring, and returns how many moves it
// accepted. The move must take exactly those draws.
func gridStep(t *testing.T, gr *Grid, draws []int64, temp, inv float64) int {
	t.Helper()
	r := &Rand{feed: rngLen - rngTap}
	tap, feed := r.tap, r.feed
	for _, x := range draws {
		tap, feed = (tap+rngLen-1)%rngLen, (feed+rngLen-1)%rngLen
		r.vec[feed] = x
	}
	accepted := gr.Stage(r, temp, inv, 1)
	if r.tap != tap || r.feed != feed {
		t.Fatalf("temp=%v: the move took other draws than %d", temp, len(draws))
	}
	return accepted
}

// sameGrid reports whether gr's mapping, cost, keep-best snapshot and
// last move's price and candidate equal want's, floats to the bit.
func sameGrid(gr, want *Grid) bool {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return slices.Equal(gr.TaskAt, want.TaskAt) && slices.Equal(gr.ProcOf, want.ProcOf) && same(gr.Cost, want.Cost) &&
		same(gr.Best, want.Best) && slices.Equal(gr.BestTaskAt, want.BestTaskAt) && same(gr.Delta, want.Delta) && gr.I == want.I
}

// gridMove runs Grid.Stage for one move of a 2 × 2 packet whose Float64
// draw is u and whose move prices delta, and reports whether the move was
// accepted. checkAccept holds the answer equal to Accept's. Candidate i
// sits on slot i, and the move swaps them: it draws candidate 0 and slot
// 0, which is its own, and so Intn(1) for the slot after it. The
// contributions are 0 but C[0,1] = delta, so the move prices
// (delta + 0) − (0 + 0). Its four draws are 0, 0, 0 and u·2⁶³, which needs
// u in [0, 1) to be a multiple of 2⁻⁶³. The move must leave the mapping,
// the keep-best snapshot and the ring where Propose and Apply leave them
// after an accepted or rejected move, and its price and candidate 0 in
// Delta and I.
func gridMove(t *testing.T, u, delta, temp, inv float64) bool {
	t.Helper()
	gr := Grid{C: []float64{0, delta, 0, 0}, TaskAt: []int{0, 1}, ProcOf: []int{0, 1},
		N: NewBound(2), P: NewBound(2), P1: NewBound(1), BestTaskAt: []int{0, 1}, I: -1}
	accepted := gridStep(t, &gr, []int64{0, 0, 0, int64(u * (1 << 63))}, temp, inv)
	want := Grid{TaskAt: []int{0, 1}, ProcOf: []int{0, 1}, BestTaskAt: []int{0, 1}, Delta: (delta + 0) - (0 + 0)}
	if accepted == 1 {
		want.TaskAt, want.ProcOf = []int{1, 0}, []int{1, 0}
		want.Cost = want.Delta
		if want.Cost < 0 {
			want.Best, want.BestTaskAt = want.Cost, want.TaskAt
		}
	}
	if !sameGrid(&gr, &want) {
		t.Fatalf("u=%v delta=%v temp=%v: %d accepted left %+v; want %+v", u, delta, temp, accepted, gr, want)
	}
	return accepted == 1
}

// TestGridRelocateKeepsSignedZeros moves the one candidate of a 1 × 2
// packet to the free slot, with u = 0 so the move is accepted. Its price
// has the terms of an absent candidate: Propose prices it
// (C[0,1]) − (C[0,0] + 0) with no term for the absent other. With
// C[0,1] = −0 and Cost = −0, only a kernel that leaves that term out, or
// adds −0 for it, ends at Cost = −0; a +0 term ends at +0.
func TestGridRelocateKeepsSignedZeros(t *testing.T) {
	nz := math.Copysign(0, -1)
	gr := Grid{C: []float64{0, nz}, TaskAt: []int{0, -1}, ProcOf: []int{0}, N: NewBound(1), P: NewBound(2), P1: NewBound(1),
		Cost: nz, Best: nz, BestTaskAt: []int{0, -1}, I: -1}
	if gridStep(t, &gr, []int64{0, 1 << 32, 0}, 1, 1) != 1 {
		t.Fatal("u = 0 rejected a move with delta = 0")
	}
	want := Grid{TaskAt: []int{-1, 0}, ProcOf: []int{1}, Cost: nz + (nz - (0 + 0)), Best: nz, Delta: nz - (0 + 0),
		BestTaskAt: []int{0, -1}}
	if !sameGrid(&gr, &want) {
		t.Fatalf("left %+v; want %+v", gr, want)
	}
}
