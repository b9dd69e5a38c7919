package taskgraph

import (
	"encoding/json"
	"math/rand"
	"testing"
)

func benchDAG(b *testing.B, n int) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	g, err := GnpDAG("bench", n, 0.05, 1, 50, 10, 400, rng)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkLevels1000(b *testing.B) {
	g := benchDAG(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Levels(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopologicalOrder1000(b *testing.B) {
	g := benchDAG(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.TopologicalOrder(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadyTrackerFullRun(b *testing.B) {
	g := benchDAG(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := NewReadyTracker(g)
		for !rt.AllDone() {
			ready := rt.Ready()
			for _, id := range ready {
				if _, err := rt.Complete(id); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkCanonicalizerParse is the warm hit's graph layer: parse a
// 100-task wire graph and emit its canonical bytes with a reused
// Canonicalizer, through the scanner and through the encoding/json
// reference. Its loads and volumes are random, so no float literal
// repeats: the case the scanner's float memo does not help.
func BenchmarkCanonicalizerParse(b *testing.B) {
	data, err := json.Marshal(benchDAG(b, 100))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		parse func(*Canonicalizer, []byte) error
	}{
		{"scan", (*Canonicalizer).Parse},
		{"reference", (*Canonicalizer).ParseReference},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var c Canonicalizer
			buf := make([]byte, 0, 2*len(data))
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.parse(&c, data); err != nil {
					b.Fatal(err)
				}
				buf = c.AppendCanonicalJSON(buf[:0])
			}
		})
	}
}
