package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// streamSeeds returns the seeds of TestRandMatchesMathRand: the edges of
// Seed's reduction modulo 2³¹−1 (0, negatives, 2³¹−1 and beyond, the
// int64 extremes and the seed 0 maps to), then random int64s of either
// sign up to n in all.
func streamSeeds(n int) []int64 {
	seeds := []int64{
		0, 1, -1, 2, 1991, 89482311,
		int32max - 1, int32max, int32max + 1, 2 * int32max, -int32max, -int32max - 1,
		1 << 31, 1 << 32, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	src := rand.New(rand.NewSource(20260417))
	for len(seeds) < n {
		s := src.Int63()
		if src.Intn(2) == 0 {
			s = -s
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// streamBounds returns the n of TestRandMatchesMathRand: every n in
// 1..4096, every power of two, 2³¹−1, and values above 2³¹−1, which
// Intn serves through Int63n.
func streamBounds() []int64 {
	var ns []int64
	for n := int64(1); n <= 4096; n++ {
		ns = append(ns, n)
	}
	for k := 13; k < 63; k++ {
		ns = append(ns, 1<<k)
	}
	return append(ns, int32max, int32max+2, 1<<40+12345, math.MaxInt64)
}

// TestRandMatchesMathRand is the stream-identity gate of Rand: over 1000
// seeds it draws 10⁶ values of each method, interleaved as the annealer
// interleaves them, and every draw must equal the one
// rand.New(rand.NewSource(seed)) returns. The n of Intn, Int63n, Int31n
// and Draw rotate through streamBounds, so each is drawn about 240 times.
func TestRandMatchesMathRand(t *testing.T) {
	const seedsN, drawsPerSeed = 1000, 1000
	ns := streamBounds()
	bounds := make([]Bound, len(ns))
	for i, n := range ns {
		if n <= math.MaxInt {
			bounds[i] = NewBound(int(n))
		}
	}
	k := 0
	for _, seed := range streamSeeds(seedsN) {
		want := rand.New(rand.NewSource(seed))
		got := NewRand(seed)
		for d := 0; d < drawsPerSeed; d++ {
			i := k % len(ns)
			k++
			n := ns[i]
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, d, g, w)
			}
			if g, w := got.Int63n(n), want.Int63n(n); g != w {
				t.Fatalf("seed %d draw %d: Int63n(%d) = %d, want %d", seed, d, n, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: Float64 = %v, want %v", seed, d, g, w)
			}
			if n > math.MaxInt {
				continue
			}
			if g, w := got.Intn(int(n)), want.Intn(int(n)); g != w {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, want %d", seed, d, n, g, w)
			}
			if g, w := got.Draw(&bounds[i]), want.Intn(int(n)); g != w {
				t.Fatalf("seed %d draw %d: Draw(%d) = %d, want Intn = %d", seed, d, n, g, w)
			}
			if n <= int32max {
				if g, w := got.Int31n(int32(n)), want.Int31n(int32(n)); g != w {
					t.Fatalf("seed %d draw %d: Int31n(%d) = %d, want %d", seed, d, n, g, w)
				}
			}
		}
	}
}

// TestRandSeedRestartsStream checks that re-seeding a used Rand restarts
// exactly the stream NewRand gives, which the scheduler arena relies on.
func TestRandSeedRestartsStream(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		r.Int63()
	}
	r.Seed(77)
	fresh := NewRand(77)
	for i := 0; i < 2000; i++ {
		if g, w := r.Int63(), fresh.Int63(); g != w {
			t.Fatalf("draw %d after Seed: %d, want %d", i, g, w)
		}
	}
}

// TestFloat64ResamplesOne forces the one Int63 value that math/rand's
// Float64 skips, because it rounds to 1.0, and checks that Float64 skips
// it too and returns the next draw.
func TestFloat64ResamplesOne(t *testing.T) {
	const top = 1<<63 - 1
	if float64(int64(top))/(1<<63) != 1 {
		t.Fatal("2⁶³−1 no longer rounds to 1.0; the test needs another value")
	}
	r := NewRand(5)
	// The next Int63 is vec[feed−1] + vec[tap−1], masked to 63 bits.
	r.vec[(r.feed+rngLen-1)%rngLen] = top
	r.vec[(r.tap+rngLen-1)%rngLen] = 0
	next := *r
	if v := next.Int63(); v != top {
		t.Fatalf("forced draw = %d, want %d", v, top)
	}
	want := float64(next.Int63()) / (1 << 63)
	if got := r.Float64(); got != want || got >= 1 {
		t.Fatalf("Float64 = %v, want the resampled %v", got, want)
	}
}

// FuzzDraw checks Draw through a Bound against math/rand's Intn(n) over
// 64 draws, for any seed and any n ≥ 1.
func FuzzDraw(f *testing.F) {
	f.Add(int64(0), int64(1))
	f.Add(int64(1991), int64(7))
	f.Add(int64(-5), int64(8))
	f.Add(int64(42), int64(4096))
	f.Add(int64(int32max), int64(int32max))
	f.Add(int64(1)<<40, int64(1)<<31)
	f.Add(int64(3), int64(1)<<40+12345)
	f.Fuzz(func(t *testing.T, seed, n int64) {
		if n <= 0 || n > math.MaxInt {
			t.Skip("Intn needs 1 ≤ n ≤ MaxInt")
		}
		b := NewBound(int(n))
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for d := 0; d < 64; d++ {
			if g, w := got.Draw(&b), want.Intn(int(n)); g != w {
				t.Fatalf("seed %d n %d draw %d: Draw = %d, want Intn = %d", seed, n, d, g, w)
			}
		}
	})
}
