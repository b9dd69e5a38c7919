package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// checkAccept fails t unless accept agrees with its specification,
// u < AcceptProb(delta, temp), on one input.
func checkAccept(t *testing.T, u, delta, temp float64) {
	t.Helper()
	if got, want := accept(u, delta, temp, 1/temp), u < AcceptProb(delta, temp); got != want {
		t.Fatalf("accept(%v, %v, %v) = %v, want %v (P = %v)", u, delta, temp, got, want, AcceptProb(delta, temp))
	}
}

// randomTriple draws one (u, delta, temp) input over the annealer's
// working range: temperatures from the hot start of a calibrated schedule
// down to the frozen tail of a 60-stage geometric one, and cost changes
// that are either packet-scale (normalized eq. 6 deltas) or chosen so
// that x = delta/temp sweeps the whole span where the bracket works.
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
		if accept(u, delta, temp, 1/temp) != (u < AcceptProb(delta, temp)) {
			t.Fatalf("triple %d: accept(%v, %v, %v) disagrees with AcceptProb = %v", k, u, delta, temp, AcceptProb(delta, temp))
		}
		if decided, _ := bracket(u, delta, temp, 1/temp); !decided {
			fallbacks++
		}
	}
	t.Logf("%d triples, %d exact fallbacks", n, fallbacks)
}

// TestAcceptAtThreshold puts u exactly on, and one ulp below, the rounded
// acceptance probability: the comparison is strict, so u = P rejects and
// u = nextafter(P, 0) accepts. These inputs sit inside the guard band by
// construction, so they exercise the exact fallback.
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
			if accept(p, delta, temp, 1/temp) {
				t.Fatalf("x=%v temp=%v: u = P = %v accepted", x, temp, p)
			}
			if below := math.Nextafter(p, 0); below < p && !accept(below, delta, temp, 1/temp) {
				t.Fatalf("x=%v temp=%v: u = nextafter(P, 0) = %v rejected", x, temp, below)
			}
			checkAccept(t, math.Nextafter(p, 1), delta, temp)
		}
	}
}

// TestAcceptBoundaryCases walks the edges of the bracket and of
// AcceptProb's own case analysis: |x| around 0, at the z = 1 switch
// (|x| = 8) where the upper bound stops applying and around AcceptProb's
// ±700 clamps; u at 0 and the ends of [0, 1); and the degenerate
// temperatures and cost changes that must take the exact path.
func TestAcceptBoundaryCases(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	xs := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-300, -1e-300, 1e-16, -1e-16,
		math.Nextafter(8, 0), 8, math.Nextafter(8, 9), -math.Nextafter(8, 0), -8, -math.Nextafter(8, 9),
		math.Nextafter(700, 0), 700, math.Nextafter(700, 701), 700.0000001,
		-math.Nextafter(700, 0), -700, -math.Nextafter(700, 701), -700.0000001,
		709, -709, 710, -710, 1e6, -1e6, 1e300, -1e300,
	}
	us := []float64{0, math.Copysign(0, -1), 5e-324, 1e-300, 1e-9, 0.25, 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		0.75, math.Nextafter(1, 0), 1, 2, -1e-300, -1, inf, -inf, nan}
	temps := []float64{1, 1e-3, 37, 5e-324, math.MaxFloat64}
	for _, x := range xs {
		for _, temp := range temps {
			for _, u := range us {
				checkAccept(t, u, x*temp, temp)
			}
		}
	}
	for _, temp := range []float64{0, math.Copysign(0, -1), -1, inf, -inf, nan} {
		for _, delta := range []float64{-1, 0, math.Copysign(0, -1), 1, inf, -inf, nan} {
			for _, u := range us {
				checkAccept(t, u, delta, temp)
				if decided, _ := bracket(u, delta, temp, 1/temp); decided {
					t.Fatalf("bracket decided at temp=%v; degenerate temperatures must take the exact path", temp)
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
	if !accept(0, 699*0.5, 0.5, 2) || accept(0, 701*0.5, 0.5, 2) {
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
	f.Add(5e-324, 4e-323, 5e-324) // 1/temp overflows to +Inf
	f.Fuzz(func(t *testing.T, u, delta, temp float64) {
		checkAccept(t, u, delta, temp)
	})
}
