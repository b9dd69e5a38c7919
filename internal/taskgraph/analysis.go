package taskgraph

import (
	"fmt"
	"math"
)

// TopologicalOrder returns the task IDs in a topological order (Kahn's
// algorithm, lowest ID first among simultaneously available tasks). It
// returns an error if the graph contains a cycle.
func (g *Graph) TopologicalOrder() ([]TaskID, error) {
	n := g.NumTasks()
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(g.pred[i])
	}
	// A simple binary heap over int keeps the order deterministic.
	var frontier intHeap
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			frontier.push(i)
		}
	}
	order := make([]TaskID, 0, n)
	for frontier.len() > 0 {
		v := frontier.pop()
		order = append(order, TaskID(v))
		for _, h := range g.succ[v] {
			indeg[h.To]--
			if indeg[h.To] == 0 {
				frontier.push(int(h.To))
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("taskgraph %q: cycle detected (%d of %d tasks ordered)", g.name, len(order), n)
	}
	return order, nil
}

// Levels returns the task level n_i of every task: the accumulated CPU time
// of the longest path from t_i to a leaf, including t_i itself. In a system
// with unlimited processors and no communication overhead, the level is the
// minimal remaining execution time once the task starts (paper §4.2a).
// Communication volumes do not contribute.
func (g *Graph) Levels() ([]float64, error) {
	order, err := g.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	levels := make([]float64, g.NumTasks())
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0.0
		for _, h := range g.succ[id] {
			if levels[h.To] > best {
				best = levels[h.To]
			}
		}
		levels[id] = g.tasks[id].Load + best
	}
	return levels, nil
}

// LevelScratch computes task levels, as Levels does, into buffers it
// keeps, so a solver that levels one graph per solve stops allocating
// once they have grown.
type LevelScratch struct {
	// Levels holds each task's level after Fill.
	Levels []float64
	deg    []int32 // pending successor counts
	stack  []int32 // reverse-Kahn worklist
}

// Fill sets ls.Levels to g's task levels by a reverse Kahn pass from the
// leaves and returns the number of tasks it ordered, which falls short of
// g.NumTasks() only when g has a cycle. A task's level does not depend on
// visit order, so Fill matches Levels bit for bit.
func (ls *LevelScratch) Fill(g *Graph) int {
	n := g.NumTasks()
	if cap(ls.Levels) < n || cap(ls.deg) < n {
		ls.Levels, ls.deg = make([]float64, n), make([]int32, n)
	}
	ls.Levels, ls.deg = ls.Levels[:n], ls.deg[:n]
	stack := ls.stack[:0]
	for i := 0; i < n; i++ {
		d := len(g.succ[i])
		ls.deg[i] = int32(d)
		ls.Levels[i] = 0
		if d == 0 {
			stack = append(stack, int32(i))
		}
	}
	ordered := 0
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ordered++
		best := 0.0
		for _, h := range g.succ[i] {
			if ls.Levels[h.To] > best {
				best = ls.Levels[h.To]
			}
		}
		ls.Levels[i] = g.tasks[i].Load + best
		for _, h := range g.pred[i] {
			ls.deg[h.To]--
			if ls.deg[h.To] == 0 {
				stack = append(stack, int32(h.To))
			}
		}
	}
	ls.stack = stack[:0]
	return ordered
}

// CoLevels returns for every task the accumulated CPU time of the longest
// path from a root to the task, including the task itself (the earliest
// possible completion time with unlimited processors and no communication).
func (g *Graph) CoLevels() ([]float64, error) {
	order, err := g.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	co := make([]float64, g.NumTasks())
	for _, id := range order {
		best := 0.0
		for _, h := range g.pred[id] {
			if co[h.To] > best {
				best = co[h.To]
			}
		}
		co[id] = g.tasks[id].Load + best
	}
	return co, nil
}

// CriticalPathLength returns the length (µs of CPU time) of the longest
// root-to-leaf chain: the minimum possible makespan on any number of
// processors when communication is free.
func (g *Graph) CriticalPathLength() (float64, error) {
	levels, err := g.Levels()
	if err != nil {
		return 0, err
	}
	best := 0.0
	for _, l := range levels {
		if l > best {
			best = l
		}
	}
	return best, nil
}

// CriticalPath returns one longest root-to-leaf chain of tasks. Ties are
// broken toward lower task IDs, so the result is deterministic.
func (g *Graph) CriticalPath() ([]TaskID, error) {
	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}
	cur := None
	best := math.Inf(-1)
	for i := range g.tasks {
		if len(g.pred[i]) == 0 && levels[i] > best {
			best = levels[i]
			cur = TaskID(i)
		}
	}
	var path []TaskID
	for cur != None {
		path = append(path, cur)
		next := None
		bestLevel := math.Inf(-1)
		for _, h := range g.succ[cur] {
			if levels[h.To] > bestLevel {
				bestLevel = levels[h.To]
				next = h.To
			}
		}
		cur = next
	}
	return path, nil
}

// MaxSpeedup returns T1/CP: the speedup attainable with unlimited
// processors and free communication (Table 1's "Max. Speedup" column).
func (g *Graph) MaxSpeedup() (float64, error) {
	cp, err := g.CriticalPathLength()
	if err != nil {
		return 0, err
	}
	if cp == 0 {
		return 0, fmt.Errorf("taskgraph %q: zero critical path", g.name)
	}
	return g.TotalLoad() / cp, nil
}

// LowerBoundMakespan returns a simple lower bound on the makespan for p
// identical processors with free communication: max(CP, T1/p). A schedule
// achieving this bound is provably optimal.
func (g *Graph) LowerBoundMakespan(p int) (float64, error) {
	if p <= 0 {
		return 0, fmt.Errorf("taskgraph: nonpositive processor count %d", p)
	}
	cp, err := g.CriticalPathLength()
	if err != nil {
		return 0, err
	}
	area := g.TotalLoad() / float64(p)
	if area > cp {
		return area, nil
	}
	return cp, nil
}

// Depth returns the number of tasks on the longest root-to-leaf chain
// (counting tasks, not time).
func (g *Graph) Depth() (int, error) {
	order, err := g.TopologicalOrder()
	if err != nil {
		return 0, err
	}
	d := make([]int, g.NumTasks())
	best := 0
	for _, id := range order {
		m := 0
		for _, h := range g.pred[id] {
			if d[h.To] > m {
				m = d[h.To]
			}
		}
		d[id] = m + 1
		if d[id] > best {
			best = d[id]
		}
	}
	return best, nil
}

// Stats summarizes a taskgraph the way the paper's Table 1 does. Times are
// microseconds; AvgComm and CCRatio depend on the link bandwidth used to
// convert edge volumes to transfer times.
type Stats struct {
	Name       string
	Tasks      int
	Edges      int
	AvgLoad    float64 // average task duration (µs)
	AvgComm    float64 // average edge communication time (µs) at the given bandwidth
	CCRatio    float64 // AvgComm / AvgLoad ("C/C ratio")
	MaxSpeedup float64 // T1 / critical path
	Depth      int     // tasks on the longest chain
	TotalLoad  float64 // T1 (µs)
}

// ComputeStats computes Table 1-style characteristics using the given link
// bandwidth in bits per microsecond (the paper's 10 Mb/s is 10 bits/µs).
func (g *Graph) ComputeStats(bandwidth float64) (Stats, error) {
	if bandwidth <= 0 {
		return Stats{}, fmt.Errorf("taskgraph: nonpositive bandwidth %g", bandwidth)
	}
	s := Stats{
		Name:      g.name,
		Tasks:     g.NumTasks(),
		Edges:     g.NumEdges(),
		TotalLoad: g.TotalLoad(),
	}
	if s.Tasks > 0 {
		s.AvgLoad = s.TotalLoad / float64(s.Tasks)
	}
	if s.Edges > 0 {
		s.AvgComm = g.TotalBits() / bandwidth / float64(s.Edges)
	}
	if s.AvgLoad > 0 {
		s.CCRatio = s.AvgComm / s.AvgLoad
	}
	ms, err := g.MaxSpeedup()
	if err != nil {
		return Stats{}, err
	}
	s.MaxSpeedup = ms
	d, err := g.Depth()
	if err != nil {
		return Stats{}, err
	}
	s.Depth = d
	return s, nil
}

// intHeap is a minimal binary min-heap over ints, used to keep graph
// traversals deterministic without pulling in container/heap interfaces.
type intHeap struct{ a []int }

func (h *intHeap) len() int { return len(h.a) }

func (h *intHeap) push(v int) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l] < h.a[small] {
			small = l
		}
		if r < last && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
