package anneal

import (
	"math/rand"
	"testing"
)

func BenchmarkAcceptProb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		AcceptProb(float64(i%7)-3, 0.5)
	}
}

// acceptSink keeps BenchmarkAccept's decisions observable.
var acceptSink int

// BenchmarkAccept runs the exp-free acceptance test on BenchmarkAcceptProb's
// (delta, temp) inputs, with u cycling through a fixed table of uniform
// draws so both the accept and the reject side are exercised.
func BenchmarkAccept(b *testing.B) {
	rng := NewRand(1991)
	var us [64]float64
	for i := range us {
		us[i] = rng.Float64()
	}
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if accept(us[i%len(us)], float64(i%7)-3, 0.5, 2) {
			n++
		}
	}
	acceptSink = n
}

func BenchmarkMinimizeToyProblem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := NewRand(int64(i))
		s := newTour(20, rng)
		if _, err := Minimize(s, Options{
			Cooling:       Geometric{T0: 2, Alpha: 0.9, NumStages: 40},
			MovesPerStage: 100,
			RNG:           rng,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// drawSink keeps BenchmarkMoveDraws' draws observable.
var drawSink float64

// BenchmarkMoveDraws times one packet move's draws, Intn(n), Intn(p),
// Intn(p−1) and Float64 for n = 13 candidates on p = 8 processors,
// through math/rand's interface-backed *rand.Rand and through Rand with
// precomputed Bounds. Both must run at 0 allocs/op.
func BenchmarkMoveDraws(b *testing.B) {
	const n, p = 13, 8
	b.Run("math_rand", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1991))
		s := 0.0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s += float64(rng.Intn(n)+rng.Intn(p)+rng.Intn(p-1)) + rng.Float64()
		}
		drawSink = s
	})
	b.Run("anneal_rand", func(b *testing.B) {
		rng := NewRand(1991)
		bn, bp, bp1 := NewBound(n), NewBound(p), NewBound(p-1)
		s := 0.0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s += float64(rng.Draw(&bn)+rng.Draw(&bp)+rng.Draw(&bp1)) + rng.Float64()
		}
		drawSink = s
	})
}
