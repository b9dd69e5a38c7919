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

// BenchmarkAccept runs the table-driven acceptance test on
// BenchmarkAcceptProb's (delta, temp) inputs, with u cycling through a
// fixed table of uniform draws so both the accept and the reject side are
// exercised. The 64 inputs run once before the timer starts, so even the
// guarded -benchtime 20x run times the decision with the bucket table
// entries it reads in cache rather than their first, cold reads.
func BenchmarkAccept(b *testing.B) {
	rng := NewRand(1991)
	var us [64]float64
	for i := range us {
		us[i] = rng.Float64()
	}
	n := 0
	for i := range us {
		if Accept(us[i], float64(i%7)-3, 0.5, 2) {
			n++
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Accept(us[i%len(us)], float64(i%7)-3, 0.5, 2) {
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

// newGrid builds a synthetic n × p packet whose contributions are formed
// from levels and communication costs drawn from rng, with candidates
// 0..min(n, p)−1 on slots 0..min(n, p)−1 and the cost of that mapping.
func newGrid(rng *Rand, n, p int) *Grid {
	gr := &Grid{C: make([]float64, n*p), TaskAt: make([]int, p), ProcOf: make([]int, n), BestTaskAt: make([]int, p),
		N: NewBound(n), P: NewBound(p), P1: NewBound(p - 1)}
	level := make([]float64, n)
	for i := range level {
		level[i] = 4 * rng.Float64()
		gr.ProcOf[i] = -1
	}
	for k := range gr.C {
		gr.C[k] = -0.5*level[k/p]/4 + 0.5*(100*rng.Float64())/400
	}
	for j := range gr.TaskAt {
		gr.TaskAt[j] = -1
		if j < n {
			gr.TaskAt[j], gr.ProcOf[j] = j, j
			gr.Cost += gr.C[j*p+j]
		}
	}
	gr.Best = gr.Cost
	copy(gr.BestTaskAt, gr.TaskAt)
	return gr
}

// gridSink keeps BenchmarkGridStage's acceptances observable.
var gridSink int

// BenchmarkGridStage times one 400-move stage of Grid.Stage on a
// synthetic packet of 13 candidates on 8 processors at a temperature
// that accepts about three moves in ten. Each stage continues from the
// state the one before it left. It must run at 0 allocs/op.
func BenchmarkGridStage(b *testing.B) {
	rng := NewRand(1991)
	gr := newGrid(rng, 13, 8)
	gr.Stage(rng, 0.05, 1/0.05, 400)
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += gr.Stage(rng, 0.05, 1/0.05, 400)
	}
	gridSink = n
	b.ReportMetric(float64(n)/float64(400*b.N), "accept/move")
}

// newColumn builds a synthetic one-processor packet of n candidates whose
// contributions are drawn from rng as newGrid's are, with candidate 0 on
// the slot and the cost of that mapping.
func newColumn(rng *Rand, n int) *Column {
	col := &Column{C: make([]float64, n), N: NewBound(n), N1: NewBound(n - 1)}
	for i := range col.C {
		level, comm := 4*rng.Float64(), 100*rng.Float64()
		col.C[i] = -0.5*level/4 + 0.5*comm/400
	}
	col.Cost = col.C[0]
	col.Best = col.Cost
	return col
}

// columnSink keeps BenchmarkColumnStage's acceptances observable.
var columnSink int

// BenchmarkColumnStage times one 400-move stage of Column.Stage on a
// synthetic packet of 16 candidates on one processor at BenchmarkGridStage's
// temperature. Each stage continues from the state the one before it
// left. It must run at 0 allocs/op.
func BenchmarkColumnStage(b *testing.B) {
	rng := NewRand(1991)
	col := newColumn(rng, 16)
	col.Stage(rng, 0.05, 1/0.05, 400)
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += col.Stage(rng, 0.05, 1/0.05, 400)
	}
	columnSink = n
	b.ReportMetric(float64(n)/float64(400*b.N), "accept/move")
}
