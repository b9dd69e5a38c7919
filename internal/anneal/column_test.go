package anneal

import (
	"math"
	"testing"
)

// columnMove runs Column.Stage for one move of a two-candidate column
// whose Float64 draw is u and whose move prices delta, and reports whether
// the move was accepted. checkAccept holds the answer equal to Accept's.
// The column holds candidate 0 (C = 0) and the move brings in candidate 1
// (C = delta), so the move's delta is (delta + 0) − (0 + 0). The move's
// three draws, Intn(2), the slot draw and Float64, are written into a zero
// ring as 1<<32 (odd, so candidate 1), 0 and u·2⁶³, which needs u in
// [0, 1) to be a multiple of 2⁻⁶³. The move must leave the column, its
// keep-best snapshot and the ring where an accepted or rejected move
// leaves them, and its price in Delta.
func columnMove(t *testing.T, u, delta, temp, inv float64) bool {
	t.Helper()
	r := &Rand{feed: rngLen - rngTap}
	tap, feed := r.tap, r.feed
	for _, x := range []int64{1 << 32, 0, int64(u * (1 << 63))} {
		tap, feed = (tap+rngLen-1)%rngLen, (feed+rngLen-1)%rngLen
		r.vec[feed] = x
	}
	col := Column{C: []float64{0, delta}, N: NewBound(2), N1: NewBound(1)}
	accepted := col.Stage(r, temp, inv, 1)
	if r.tap != tap || r.feed != feed {
		t.Fatalf("u=%v delta=%v temp=%v: the move took other draws than Intn(2), Intn(1) and Float64", u, delta, temp)
	}
	want := Column{Delta: (delta + 0) - (0 + 0)}
	if accepted == 1 {
		want.Cur, want.Cost = 1, want.Delta
		if want.Cost < 0 {
			want.Best, want.BestCur = want.Cost, 1
		}
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if col.Cur != want.Cur || col.BestCur != want.BestCur || !same(col.Cost, want.Cost) || !same(col.Best, want.Best) || !same(col.Delta, want.Delta) {
		t.Fatalf("u=%v delta=%v temp=%v: %d accepted left %+v; want %+v", u, delta, temp, accepted, col, want)
	}
	return accepted == 1
}
