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
	rng := rand.New(rand.NewSource(1991))
	var us [64]float64
	for i := range us {
		us[i] = rng.Float64()
	}
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if accept(us[i%len(us)], float64(i%7)-3, 0.5) {
			n++
		}
	}
	acceptSink = n
}

func BenchmarkMinimizeToyProblem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
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
