package taskgraph

import (
	"fmt"
	"math/rand"
)

// LayeredConfig parameterizes the layered random DAG generator. Layered
// DAGs are the standard synthetic workload for list-scheduling studies
// (Adam, Chandy & Dickinson, CACM 1974, used 900 of them to show HLF stays
// within 5% of optimal).
type LayeredConfig struct {
	Layers   int     // number of layers (depth), >= 1
	MinWidth int     // minimum tasks per layer, >= 1
	MaxWidth int     // maximum tasks per layer, >= MinWidth
	MinLoad  float64 // minimum task duration (µs)
	MaxLoad  float64 // maximum task duration (µs)
	MinBits  float64 // minimum edge volume (bits)
	MaxBits  float64 // maximum edge volume (bits)
	// EdgeProb is the probability of an edge between a task and each task
	// of the previous layer. Every non-root task receives at least one
	// predecessor from the previous layer so depth equals Layers.
	EdgeProb float64
}

// Validate reports whether the configuration is usable.
func (c LayeredConfig) Validate() error {
	switch {
	case c.Layers < 1:
		return fmt.Errorf("taskgraph: LayeredConfig.Layers = %d, want >= 1", c.Layers)
	case c.MinWidth < 1 || c.MaxWidth < c.MinWidth:
		return fmt.Errorf("taskgraph: LayeredConfig width range [%d,%d] invalid", c.MinWidth, c.MaxWidth)
	case c.MinLoad < 0 || c.MaxLoad < c.MinLoad:
		return fmt.Errorf("taskgraph: LayeredConfig load range [%g,%g] invalid", c.MinLoad, c.MaxLoad)
	case c.MinBits < 0 || c.MaxBits < c.MinBits:
		return fmt.Errorf("taskgraph: LayeredConfig bits range [%g,%g] invalid", c.MinBits, c.MaxBits)
	case c.EdgeProb < 0 || c.EdgeProb > 1:
		return fmt.Errorf("taskgraph: LayeredConfig.EdgeProb = %g, want in [0,1]", c.EdgeProb)
	}
	return nil
}

// Layered generates a random layered DAG. The same seed always yields the
// same graph.
func Layered(name string, cfg LayeredConfig, rng *rand.Rand) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := New(name)
	uniform := func(lo, hi float64) float64 {
		if hi <= lo {
			return lo
		}
		return lo + float64(rng.Float64()*(hi-lo))
	}
	widthOf := func() int {
		if cfg.MaxWidth == cfg.MinWidth {
			return cfg.MinWidth
		}
		return cfg.MinWidth + rng.Intn(cfg.MaxWidth-cfg.MinWidth+1)
	}
	var prev []TaskID
	for layer := 0; layer < cfg.Layers; layer++ {
		width := widthOf()
		cur := make([]TaskID, 0, width)
		for k := 0; k < width; k++ {
			id := g.AddTask(fmt.Sprintf("L%d.%d", layer, k), uniform(cfg.MinLoad, cfg.MaxLoad))
			cur = append(cur, id)
		}
		if layer > 0 {
			for _, t := range cur {
				connected := false
				for _, p := range prev {
					if rng.Float64() < cfg.EdgeProb {
						g.MustAddEdge(p, t, uniform(cfg.MinBits, cfg.MaxBits))
						connected = true
					}
				}
				if !connected {
					p := prev[rng.Intn(len(prev))]
					g.MustAddEdge(p, t, uniform(cfg.MinBits, cfg.MaxBits))
				}
			}
		}
		prev = cur
	}
	return g, nil
}

// GnpDAG generates a random DAG over n tasks where each forward pair (i, j)
// with i < j is an edge with probability p; loads and volumes are uniform
// in the given ranges. The ordering 0..n-1 is a topological order by
// construction.
func GnpDAG(name string, n int, p float64, minLoad, maxLoad, minBits, maxBits float64, rng *rand.Rand) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("taskgraph: GnpDAG n = %d, want >= 1", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("taskgraph: GnpDAG p = %g, want in [0,1]", p)
	}
	if maxLoad < minLoad || minLoad < 0 || maxBits < minBits || minBits < 0 {
		return nil, fmt.Errorf("taskgraph: GnpDAG invalid load/bits ranges")
	}
	g := New(name)
	uniform := func(lo, hi float64) float64 {
		if hi <= lo {
			return lo
		}
		return lo + float64(rng.Float64()*(hi-lo))
	}
	for i := 0; i < n; i++ {
		g.AddTask(fmt.Sprintf("v%d", i), uniform(minLoad, maxLoad))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.MustAddEdge(TaskID(i), TaskID(j), uniform(minBits, maxBits))
			}
		}
	}
	return g, nil
}

// ForkJoin generates a fork-join DAG: a fork task, width independent body
// tasks, and a join task. Useful as a minimal scheduling workload in tests
// and examples.
func ForkJoin(name string, width int, bodyLoad, endLoad, bits float64) (*Graph, error) {
	if width < 1 {
		return nil, fmt.Errorf("taskgraph: ForkJoin width = %d, want >= 1", width)
	}
	g := New(name)
	fork := g.AddTask("fork", endLoad)
	join := g.AddTask("join", endLoad)
	for i := 0; i < width; i++ {
		b := g.AddTask(fmt.Sprintf("body%d", i), bodyLoad)
		g.MustAddEdge(fork, b, bits)
		g.MustAddEdge(b, join, bits)
	}
	return g, nil
}

// Chain generates a linear chain of n tasks, each depending on the
// previous one. Chains have no parallelism at all and exercise the
// degenerate corner of schedulers.
func Chain(name string, n int, load, bits float64) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("taskgraph: Chain n = %d, want >= 1", n)
	}
	g := New(name)
	prev := g.AddTask("c0", load)
	for i := 1; i < n; i++ {
		cur := g.AddTask(fmt.Sprintf("c%d", i), load)
		g.MustAddEdge(prev, cur, bits)
		prev = cur
	}
	return g, nil
}

// Independent generates n tasks with no edges (the balancing-problem
// degenerate case: <* is empty).
func Independent(name string, n int, minLoad, maxLoad float64, rng *rand.Rand) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("taskgraph: Independent n = %d, want >= 1", n)
	}
	g := New(name)
	for i := 0; i < n; i++ {
		load := minLoad
		if maxLoad > minLoad {
			load += float64(rng.Float64() * (maxLoad - minLoad))
		}
		g.AddTask(fmt.Sprintf("t%d", i), load)
	}
	return g, nil
}

// InTree generates an in-tree (reduction tree) of the given fan-in and
// depth: leaves feed into their parent until a single sink remains.
// Hu's algorithm (1961) is optimal on unit-time in-trees, making them a
// good verification workload.
func InTree(name string, fanIn, depth int, load, bits float64) (*Graph, error) {
	if fanIn < 1 || depth < 1 {
		return nil, fmt.Errorf("taskgraph: InTree fanIn=%d depth=%d, want >= 1", fanIn, depth)
	}
	g := New(name)
	// Build from the sink upward: level 0 is the sink.
	levels := make([][]TaskID, depth)
	levels[0] = []TaskID{g.AddTask("sink", load)}
	for d := 1; d < depth; d++ {
		for _, parent := range levels[d-1] {
			for k := 0; k < fanIn; k++ {
				child := g.AddTask(fmt.Sprintf("n%d.%d.%d", d, parent, k), load)
				levels[d] = append(levels[d], child)
				g.MustAddEdge(child, parent, bits)
			}
		}
	}
	return g, nil
}
