package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// checkAccept fails t unless Accept agrees with its specification,
// u < AcceptProb(delta, temp), on one input, and unless Column.Stage and
// Grid.Stage decide the input as Accept does whenever their Float64 draw
// can be u: a u in [0, 1) that is a multiple of 2⁻⁶³.
func checkAccept(t *testing.T, u, delta, temp float64) {
	t.Helper()
	want := u < AcceptProb(delta, temp)
	if got := Accept(u, delta, temp, 1/temp); got != want {
		t.Fatalf("Accept(%v, %v, %v) = %v, want %v (P = %v)", u, delta, temp, got, want, AcceptProb(delta, temp))
	}
	if s := u * (1 << 63); u >= 0 && u < 1 && s == math.Trunc(s) {
		if got := columnMove(t, u, delta, temp, 1/temp); got != want {
			t.Fatalf("Column.Stage decided u=%v delta=%v temp=%v as %v, Accept as %v (P = %v)", u, delta, temp, got, want, AcceptProb(delta, temp))
		}
		if got := gridMove(t, u, delta, temp, 1/temp); got != want {
			t.Fatalf("Grid.Stage decided u=%v delta=%v temp=%v as %v, Accept as %v (P = %v)", u, delta, temp, got, want, AcceptProb(delta, temp))
		}
	}
}

// randomTriple draws one (u, delta, temp) input over the annealer's
// working range: temperatures from the hot start of a calibrated schedule
// down to the frozen tail of a 60-stage geometric one, and cost changes
// that are either packet-scale (normalized eq. 6 deltas) or chosen so
// that x = delta/temp sweeps the table's finite bounds, ±7.7, and well
// beyond them.
func randomTriple(rng *rand.Rand) (u, delta, temp float64) {
	u = rng.Float64()
	temp = math.Pow(10, -5+6*rng.Float64())
	switch rng.Intn(4) {
	case 0:
		delta = (2*rng.Float64() - 1) * math.Pow(10, -6+7*rng.Float64())
	case 1:
		delta = (2*rng.Float64() - 1) * 40 * temp
	case 2:
		delta = (2*rng.Float64() - 1) * 800 * temp
	default:
		delta = float64(rng.Intn(9)-4) * 0.125 // exact, small, often 0
	}
	return u, delta, temp
}

// TestAcceptMatchesAcceptProbRandom is the large randomized equivalence
// check: 10 M triples across the cooling range must decide exactly as
// u < AcceptProb(delta, temp).
func TestAcceptMatchesAcceptProbRandom(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	rng := rand.New(rand.NewSource(1991))
	fallbacks := 0
	for k := 0; k < n; k++ {
		u, delta, temp := randomTriple(rng)
		if Accept(u, delta, temp, 1/temp) != (u < AcceptProb(delta, temp)) {
			t.Fatalf("triple %d: Accept(%v, %v, %v) disagrees with AcceptProb = %v", k, u, delta, temp, AcceptProb(delta, temp))
		}
		if decided, _ := tableDecide(u, delta, 1/temp); !decided {
			fallbacks++
		}
	}
	t.Logf("%d triples, %d exact fallbacks", n, fallbacks)
}

// TestAcceptAtThreshold puts u exactly on, and one ulp below, the rounded
// acceptance probability: the comparison is strict, so u = P rejects and
// u = nextafter(P, 0) accepts. x lies between the bounds of the bucket
// holding u = P by construction, so these inputs exercise the exact
// fallback.
func TestAcceptAtThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := []float64{0, 1e-300, -1e-300, 1e-9, -1e-9, 0.5, -0.5, 1, -1, 7.999, 8, 8.001, -8, 20, -20, 699, -699, 700, -700}
	for k := 0; k < 20000; k++ {
		xs = append(xs, 80*rng.Float64()-40)
	}
	for _, x := range xs {
		for _, temp := range []float64{1, 0.37, 1e-3} {
			delta := x * temp
			p := AcceptProb(delta, temp)
			if Accept(p, delta, temp, 1/temp) {
				t.Fatalf("x=%v temp=%v: u = P = %v accepted", x, temp, p)
			}
			if below := math.Nextafter(p, 0); below < p && !Accept(below, delta, temp, 1/temp) {
				t.Fatalf("x=%v temp=%v: u = nextafter(P, 0) = %v rejected", x, temp, below)
			}
			checkAccept(t, math.Nextafter(p, 1), delta, temp)
		}
	}
}

// logitAt returns logit(k/K) = ln((K−k)/k), the x at which bucket k's
// lower edge u = k/K has P(x) = u.
func logitAt(k int) float64 {
	return math.Log(float64(acceptBuckets-k) / float64(k))
}

// TestAcceptTableBounds checks the table's construction against an
// independent evaluation of the logit, ln(1−v) − ln(v): both bound columns
// fall strictly with k, every bucket's band [lo, hi] is non-empty, and
// each bound lies outside the logit it guards by at least half the margin
// (lo[k] < logit((k+1)/K), logit(k/K) < hi[k]), with infinite bounds
// exactly at the two ends.
func TestAcceptTableBounds(t *testing.T) {
	logit := func(k int) float64 {
		v := float64(k) / acceptBuckets
		return math.Log1p(-v) - math.Log(v)
	}
	if !math.IsInf(acceptTable[0].hi, 1) || !math.IsInf(acceptTable[acceptBuckets-1].lo, -1) {
		t.Fatalf("hi[0] = %v, lo[K-1] = %v; want +Inf, -Inf", acceptTable[0].hi, acceptTable[acceptBuckets-1].lo)
	}
	for k, b := range acceptTable {
		if !(b.lo < b.hi) {
			t.Fatalf("bucket %d: lo = %v not below hi = %v", k, b.lo, b.hi)
		}
		if k+1 < acceptBuckets {
			if next := acceptTable[k+1]; !(next.lo < b.lo) || !(next.hi < b.hi) {
				t.Fatalf("bucket %d: bounds (%v, %v) do not fall to bucket %d's (%v, %v)", k, b.lo, b.hi, k+1, next.lo, next.hi)
			}
			if l := logit(k + 1); !(b.lo < l-0.5*bucketMargin*(1+math.Abs(l))) {
				t.Fatalf("bucket %d: lo = %v not below logit((k+1)/K) = %v by half the margin", k, b.lo, l)
			}
		}
		if k > 0 {
			if l := logit(k); !(l+0.5*bucketMargin*(1+math.Abs(l)) < b.hi) {
				t.Fatalf("bucket %d: hi = %v not above logit(k/K) = %v by half the margin", k, b.hi, l)
			}
		}
	}
}

// TestAcceptBoundaryCases walks the edges of the table and of AcceptProb's
// own case analysis, for Accept and, through checkAccept, for the
// branch-free decisions of Column.Stage and Grid.Stage. First every bucket
// edge: u = k/K and one ulp either side of it, with x on the logit of that
// edge and on the bounds of the two buckets that meet there, each exactly
// and 1, 2 and 4 ulps off, and x one margin off the logit on either side,
// at several temperatures, and x one ulp inside each bound. These are the
// inputs where a bound that is too tight would decide against the rounded
// AcceptProb. Then |x| around 0, around the table's largest finite bounds
// ±logit(1/K) and around AcceptProb's ±700 clamps; u at 0 and the ends of
// [0, 1); and the degenerate temperatures and cost changes that must take
// the exact path.
func TestAcceptBoundaryCases(t *testing.T) {
	for k := 1; k < acceptBuckets; k++ {
		l := logitAt(k)
		m := bucketMargin * (1 + math.Abs(l))
		xs := []float64{l - m, l + m}
		for _, v := range []float64{l, acceptTable[k-1].lo, acceptTable[k-1].hi, acceptTable[k].lo, acceptTable[k].hi} {
			if math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, v)
			for _, n := range []int{1, 2, 4} {
				up, down := v, v
				for i := 0; i < n; i++ {
					up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
				}
				xs = append(xs, up, down)
			}
		}
		edge := float64(k) / acceptBuckets
		for _, u := range []float64{edge, math.Nextafter(edge, 0), math.Nextafter(edge, 1)} {
			for _, x := range xs {
				for _, temp := range []float64{1, 0.37, 1e-3, 37} {
					checkAccept(t, u, x*temp, temp)
				}
			}
		}
		// The tightest inputs the table decides: the largest u of bucket
		// k−1 with x one ulp below its lo, and the smallest u of bucket k
		// with x one ulp above its hi.
		checkAccept(t, math.Nextafter(edge, 0), math.Nextafter(acceptTable[k-1].lo, math.Inf(-1)), 1)
		checkAccept(t, edge, math.Nextafter(acceptTable[k].hi, math.Inf(1)), 1)
	}

	inf, nan := math.Inf(1), math.NaN()
	top := logitAt(1)
	xs := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-300, -1e-300, 1e-16, -1e-16,
		math.Nextafter(top, 0), top, math.Nextafter(top, 9), -math.Nextafter(top, 0), -top, -math.Nextafter(top, 9),
		math.Nextafter(700, 0), 700, math.Nextafter(700, 701), 700.0000001,
		-math.Nextafter(700, 0), -700, -math.Nextafter(700, 701), -700.0000001,
		709, -709, 710, -710, 1e6, -1e6, 1e300, -1e300,
	}
	us := []float64{0, math.Copysign(0, -1), 5e-324, 1e-300, 1e-9, 1.0 / acceptBuckets, 0.25, 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		0.75, 1 - 1.0/acceptBuckets, math.Nextafter(1-1.0/acceptBuckets, 0), math.Nextafter(1, 0), 1, 2, -1e-300, -1, inf, -inf, nan}
	temps := []float64{1, 1e-3, 37, 5e-324, 0x1p-1023, math.MaxFloat64, 0x1p1022, 0x1p1023}
	for _, x := range xs {
		for _, temp := range temps {
			for _, u := range us {
				checkAccept(t, u, x*temp, temp)
			}
		}
	}
	// Degenerate temperatures, and temperatures whose reciprocal is not a
	// positive normal float64, must never be decided from the table.
	for _, temp := range []float64{0, math.Copysign(0, -1), -1, inf, -inf, nan, 5e-324, 0x1p-1030, 0x1p1023, math.MaxFloat64} {
		for _, delta := range []float64{-1, 0, math.Copysign(0, -1), 1, 1e-320, inf, -inf, nan} {
			for _, u := range us {
				checkAccept(t, u, delta, temp)
				if decided, _ := tableDecide(u, delta, 1/temp); decided {
					t.Fatalf("table decided at temp=%v; degenerate temperatures must take the exact path", temp)
				}
			}
		}
	}
	for _, delta := range []float64{inf, -inf, nan} {
		for _, temp := range temps {
			for _, u := range us {
				checkAccept(t, u, delta, temp)
			}
		}
	}
	// u = 0 accepts exactly when P > 0, i.e. unless AcceptProb clamps to 0.
	if !Accept(0, 699*0.5, 0.5, 2) || Accept(0, 701*0.5, 0.5, 2) {
		t.Fatal("u = 0 must accept iff P > 0")
	}
}

func FuzzAccept(f *testing.F) {
	f.Add(0.5, 0.0, 1.0)
	f.Add(0.1, 1.0, 0.5)
	f.Add(0.9, -1.0, 0.5)
	f.Add(0.0003, 8.0, 1.0)
	f.Add(0.9997, -8.0, 1.0)
	f.Add(0.0, 700.0, 1.0)
	f.Add(1e-305, 701.0, 1.0)
	f.Add(0.25, 1.0, 0.0)
	f.Add(0.25, -1.0, math.Inf(1))
	f.Add(0.25, math.NaN(), 1.0)
	f.Add(math.NaN(), 0.1, 1.0)
	f.Add(5e-324, 4e-323, 5e-324)  // 1/temp overflows to +Inf
	f.Add(1e-300, 1e300, 0x1p1023) // 1/temp is subnormal
	// Bucket edges: u = k/K and one ulp below it, x = logit(k/K) and
	// one ulp or one margin off it.
	f.Add(1.0/acceptBuckets, logitAt(1), 1.0)
	f.Add(math.Nextafter(1.0/acceptBuckets, 0), math.Nextafter(logitAt(1), 0), 1.0)
	f.Add(0.5, 0.0, 0.37)
	f.Add(math.Nextafter(0.5, 0), 1e-9, 1.0)
	f.Add(1000.0/acceptBuckets, logitAt(1000)*0.01, 0.01)
	f.Add(1-1.0/acceptBuckets, logitAt(acceptBuckets-1)-1e-9, 1.0)
	f.Add(math.Nextafter(1-1.0/acceptBuckets, 0), logitAt(acceptBuckets-1)+1e-9, 1.0)
	f.Fuzz(func(t *testing.T, u, delta, temp float64) {
		checkAccept(t, u, delta, temp)
	})
}
