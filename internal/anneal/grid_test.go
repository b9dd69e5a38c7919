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

// sameGrid reports whether gr's mapping, running components, cost and
// keep-best snapshot and last price equal want's, floats to the bit.
func sameGrid(gr, want *Grid) bool {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return slices.Equal(gr.TaskAt, want.TaskAt) && slices.Equal(gr.ProcOf, want.ProcOf) && same(gr.Fb, want.Fb) && same(gr.Fc, want.Fc) &&
		same(gr.Cost, want.Cost) && same(gr.Best, want.Best) && slices.Equal(gr.BestTaskAt, want.BestTaskAt) &&
		same(gr.BestFb, want.BestFb) && same(gr.BestFc, want.BestFc) && same(gr.Delta, want.Delta)
}

// gridMove runs Grid.Stage for one move of a 2 × 2 packet whose Float64
// draw is u and whose move prices delta, and reports whether the move was
// accepted. checkAccept holds the answer equal to Accept's. Candidate i
// sits on slot i, and the move swaps them: it draws candidate 0 and slot
// 0, which is its own, and so Intn(1) for the slot after it. The
// contributions are 0 but C[0,1] = delta, so the move prices
// (delta + 0) − (0 + 0). Its four draws are 0, 0, 0 and u·2⁶³, which needs
// u in [0, 1) to be a multiple of 2⁻⁶³. The move must leave the mapping,
// the running components, the keep-best snapshot and the ring where
// Propose and Apply leave them after an accepted or rejected move; the
// levels and communication costs are ones whose sums come out different
// in any other order than Apply's.
func gridMove(t *testing.T, u, delta, temp, inv float64) bool {
	t.Helper()
	level, comm := []float64{0.1, 0.3}, []float64{0.1, 0.3, 0.1, 0.3}
	fb, fc := -1.3, 1.0
	gr := Grid{C: []float64{0, delta, 0, 0}, Comm: comm, Level: level,
		TaskAt: []int{0, 1}, ProcOf: []int{0, 1}, N: NewBound(2), P: NewBound(2), P1: NewBound(1),
		Fb: fb, Fc: fc, BestTaskAt: []int{0, 1}, BestFb: fb, BestFc: fc}
	accepted := gridStep(t, &gr, []int64{0, 0, 0, int64(u * (1 << 63))}, temp, inv)
	want := Grid{TaskAt: []int{0, 1}, ProcOf: []int{0, 1}, Fb: fb, Fc: fc, BestTaskAt: []int{0, 1}, BestFb: fb, BestFc: fc,
		Delta: (delta + 0) - (0 + 0)}
	if accepted == 1 {
		want.TaskAt, want.ProcOf = []int{1, 0}, []int{1, 0}
		want.Fb = fb + level[0] + level[1] - level[0] - level[1]
		want.Fc = fc - comm[0] - comm[3] + comm[1] + comm[2]
		want.Cost = want.Delta
		if want.Cost < 0 {
			want.Best, want.BestTaskAt, want.BestFb, want.BestFc = want.Cost, want.TaskAt, want.Fb, want.Fc
		}
	}
	if !sameGrid(&gr, &want) {
		t.Fatalf("u=%v delta=%v temp=%v: %d accepted left %+v; want %+v", u, delta, temp, accepted, gr, want)
	}
	return accepted == 1
}

// TestGridRelocateKeepsSignedZeros moves the one candidate of a 1 × 2
// packet to the free slot, with u = 0 so the move is accepted. Its price
// and sums have the terms of an absent candidate: Propose prices it
// (C[0,1]) − (C[0,0] + 0) with no term for the absent other, and Apply
// adds nothing for it. With C[0,1] = −0 and Cost = −0, only a kernel that
// leaves those terms out, or adds −0 for them, ends at Cost = −0; a +0
// term ends at +0.
func TestGridRelocateKeepsSignedZeros(t *testing.T) {
	nz := math.Copysign(0, -1)
	level, comm := []float64{0.7}, []float64{0.1, 0.3}
	fb, fc := -level[0], comm[0]
	gr := Grid{C: []float64{0, nz}, Comm: comm, Level: level,
		TaskAt: []int{0, -1}, ProcOf: []int{0}, N: NewBound(1), P: NewBound(2), P1: NewBound(1),
		Fb: fb, Fc: fc, Cost: nz, Best: nz, BestTaskAt: []int{0, -1}, BestFb: fb, BestFc: fc}
	if gridStep(t, &gr, []int64{0, 1 << 32, 0}, 1, 1) != 1 {
		t.Fatal("u = 0 rejected a move with delta = 0")
	}
	want := Grid{TaskAt: []int{-1, 0}, ProcOf: []int{1},
		Fb: fb + level[0] - level[0], Fc: fc - comm[0] + comm[1], Cost: nz + (nz - (0 + 0)), Best: nz, Delta: nz - (0 + 0),
		BestTaskAt: []int{0, -1}, BestFb: fb, BestFc: fc}
	if !sameGrid(&gr, &want) {
		t.Fatalf("left %+v; want %+v", gr, want)
	}
}
