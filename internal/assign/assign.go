// Package assign implements the two simulated-annealing assignment
// problems the paper positions itself against (§3):
//
//   - the *mapping problem* of Bollinger & Midkiff (ICPP '88): NT ≤ NP,
//     at most one task per processor, undirected communication; minimize
//     the total communication traffic together with the worst
//     point-to-point link load;
//   - the *balancing problem* of Hwang & Xu (ICPP '90): NT > NP, all
//     modules execute concurrently; minimize the absolute deviation from
//     the average processor load plus the inter-processor traffic.
//
// Both treat the taskgraph as undirected (edges are communication
// channels, not precedence) and produce one *static* mapping for the
// whole execution. The scheduling problem of the paper differs precisely
// in that precedence makes load and communication patterns change over
// time; StaticPolicy lets the experiment suite quantify that difference
// by executing a directed taskgraph under a static balanced mapping.
package assign

import (
	"fmt"
	"math"

	"repro/internal/anneal"
	"repro/internal/machsim"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Mapping is the result of a static assignment: ProcOf[t] is the
// processor of task t.
type Mapping struct {
	ProcOf []int
	Cost   float64
	Anneal anneal.Result
}

// MappingOptions configures SolveMapping.
type MappingOptions struct {
	// WTotal and WMax weight the total-traffic and max-link-load terms.
	// Bollinger & Midkiff minimize both; defaults are 1 and 1.
	WTotal, WMax float64
	Anneal       anneal.Options
	Seed         int64
}

// SolveMapping solves the mapping problem: place each task of g on its
// own processor of topo (NT ≤ NP) minimizing
//
//	WTotal · Σ w_ij·d(m_i,m_j)  +  WMax · max-link-load,
//
// where the link load accumulates the traffic of every message routed
// over the link along the canonical shortest paths.
func SolveMapping(g *taskgraph.Graph, topo *topology.Topology, opt MappingOptions) (*Mapping, error) {
	if topo == nil {
		return nil, fmt.Errorf("assign: nil topology")
	}
	if g.NumTasks() == 0 {
		return nil, fmt.Errorf("assign: empty graph")
	}
	if g.NumTasks() > topo.N() {
		return nil, fmt.Errorf("assign: mapping needs NT <= NP, got %d tasks on %d processors",
			g.NumTasks(), topo.N())
	}
	if opt.WTotal == 0 && opt.WMax == 0 {
		opt.WTotal, opt.WMax = 1, 1
	}
	st := &mappingState{
		g:    g,
		topo: topo,
		opt:  opt,
		// Initial placement: task i on processor i.
		procOf: make([]int, g.NumTasks()),
		taskAt: make([]int, topo.N()),
	}
	for p := range st.taskAt {
		st.taskAt[p] = -1
	}
	for i := range st.procOf {
		st.procOf[i] = i
		st.taskAt[i] = i
	}
	aopt := opt.Anneal
	if aopt.Cooling == nil {
		aopt = anneal.DefaultOptions()
		aopt.MovesPerStage = 4 * g.NumTasks() * topo.N()
		if aopt.MovesPerStage > 2000 {
			aopt.MovesPerStage = 2000
		}
	}
	if aopt.RNG == nil {
		aopt.RNG = anneal.NewRand(opt.Seed)
	}
	res, err := anneal.Minimize(st, aopt)
	if err != nil {
		return nil, err
	}
	return &Mapping{ProcOf: st.procOf, Cost: res.FinalCost, Anneal: res}, nil
}

// mappingState implements anneal.Problem and anneal.Snapshotter for the
// mapping problem. Costs are recomputed per move — mapping instances are
// small by definition (NT ≤ NP).
type mappingState struct {
	g      *taskgraph.Graph
	topo   *topology.Topology
	opt    MappingOptions
	procOf []int
	taskAt []int
	// Undo state of the last Propose.
	undoI, undoCur, undoTarget, undoOther int
	// Best-state double buffer for anneal.Snapshotter.
	bestProcOf []int
	bestTaskAt []int
}

// Cost implements anneal.Problem.
func (m *mappingState) Cost() float64 {
	total := 0.0
	linkLoad := make(map[[2]int]float64)
	for _, e := range m.g.Edges() {
		// Undirected view: traffic flows both ways; the volume counts once.
		src, dst := m.procOf[e.From], m.procOf[e.To]
		if src == dst {
			continue
		}
		d := m.topo.Dist(src, dst)
		total += e.Bits * float64(d)
		path := m.topo.Path(src, dst)
		for k := 1; k < len(path); k++ {
			linkLoad[topology.CanonicalLink(path[k-1], path[k])] += e.Bits
		}
	}
	maxLoad := 0.0
	for _, l := range linkLoad {
		if l > maxLoad {
			maxLoad = l
		}
	}
	return m.opt.WTotal*total + m.opt.WMax*maxLoad
}

// Propose implements anneal.Problem: move a task to a free processor or
// exchange two tasks.
func (m *mappingState) Propose(rng *anneal.Rand) (float64, bool) {
	n, p := len(m.procOf), len(m.taskAt)
	if n == 0 || p < 2 {
		return 0, false
	}
	before := m.Cost()
	i := rng.Intn(n)
	cur := m.procOf[i]
	target := rng.Intn(p)
	if target == cur {
		target = (target + 1 + rng.Intn(p-1)) % p
	}
	other := m.taskAt[target]
	m.procOf[i] = target
	m.taskAt[target] = i
	m.taskAt[cur] = other
	if other >= 0 {
		m.procOf[other] = cur
	}
	m.undoI, m.undoCur, m.undoTarget, m.undoOther = i, cur, target, other
	return m.Cost() - before, true
}

// Undo implements anneal.Problem: revert the last Propose.
func (m *mappingState) Undo() {
	i, cur, target, other := m.undoI, m.undoCur, m.undoTarget, m.undoOther
	m.procOf[i] = cur
	m.taskAt[cur] = i
	m.taskAt[target] = other
	if other >= 0 {
		m.procOf[other] = target
	}
}

// SaveBest implements anneal.Snapshotter.
func (m *mappingState) SaveBest() {
	m.bestProcOf = append(m.bestProcOf[:0], m.procOf...)
	m.bestTaskAt = append(m.bestTaskAt[:0], m.taskAt...)
}

// RestoreBest implements anneal.Snapshotter.
func (m *mappingState) RestoreBest() {
	copy(m.procOf, m.bestProcOf)
	copy(m.taskAt, m.bestTaskAt)
}

// BalancingOptions configures SolveBalancing.
type BalancingOptions struct {
	// Wb and Wc weight the load-balance and communication terms
	// (defaults 0.5/0.5 as in Hwang & Xu's formulation).
	Wb, Wc float64
	Anneal anneal.Options
	Seed   int64
}

// SolveBalancing solves the balancing problem: distribute the NT > NP
// tasks of g over the processors of topo minimizing
//
//	Wb · Σ_p |load(p) − avg|  +  Wc · Σ_{ij} w_ij·d(m_i,m_j),
//
// assuming all modules execute concurrently (precedence ignored).
func SolveBalancing(g *taskgraph.Graph, topo *topology.Topology, opt BalancingOptions) (*Mapping, error) {
	if topo == nil {
		return nil, fmt.Errorf("assign: nil topology")
	}
	if g.NumTasks() == 0 {
		return nil, fmt.Errorf("assign: empty graph")
	}
	if opt.Wb == 0 && opt.Wc == 0 {
		opt.Wb, opt.Wc = 0.5, 0.5
	}
	n, p := g.NumTasks(), topo.N()
	st := &balanceState{
		g:       g,
		topo:    topo,
		opt:     opt,
		procOf:  make([]int, n),
		load:    make([]float64, p),
		avg:     g.TotalLoad() / float64(p),
		commDen: 1,
		loadDen: 1,
	}
	for i := 0; i < n; i++ {
		st.procOf[i] = i % p
		st.load[i%p] += g.Load(taskgraph.TaskID(i))
	}
	// Normalize the two terms by their worst case so the weights are
	// meaningful across instances: all load on one processor, and all
	// traffic across the diameter.
	st.loadDen = 2 * g.TotalLoad() * (1 - 1/float64(p))
	st.commDen = g.TotalBits() * float64(topo.Diameter())
	if st.loadDen <= 0 {
		st.loadDen = 1
	}
	if st.commDen <= 0 {
		st.commDen = 1
	}

	aopt := opt.Anneal
	if aopt.Cooling == nil {
		aopt = anneal.DefaultOptions()
		aopt.MovesPerStage = 8 * n
		if aopt.MovesPerStage > 4000 {
			aopt.MovesPerStage = 4000
		}
	}
	if aopt.RNG == nil {
		aopt.RNG = anneal.NewRand(opt.Seed)
	}
	res, err := anneal.Minimize(st, aopt)
	if err != nil {
		return nil, err
	}
	return &Mapping{ProcOf: st.procOf, Cost: res.FinalCost, Anneal: res}, nil
}

// balanceState implements anneal.Problem with incremental cost updates:
// moving one task changes two processor loads and the distances of the
// task's incident edges.
type balanceState struct {
	g       *taskgraph.Graph
	topo    *topology.Topology
	opt     BalancingOptions
	procOf  []int
	load    []float64
	avg     float64
	loadDen float64
	commDen float64
	// Undo state of the last Propose.
	undoTask         taskgraph.TaskID
	undoCur, undoDst int
	undoLoad         float64
	// Best-state double buffer for anneal.Snapshotter.
	bestProcOf []int
	bestLoad   []float64
}

// Cost implements anneal.Problem.
func (b *balanceState) Cost() float64 {
	dev := 0.0
	for _, l := range b.load {
		dev += math.Abs(l - b.avg)
	}
	comm := 0.0
	for _, e := range b.g.Edges() {
		comm += e.Bits * float64(b.topo.Dist(b.procOf[e.From], b.procOf[e.To]))
	}
	return b.opt.Wb*dev/b.loadDen + b.opt.Wc*comm/b.commDen
}

// taskCommCost sums the distance-weighted traffic of every edge incident
// to task i under the current mapping, assuming task i sits on proc.
func (b *balanceState) taskCommCost(i taskgraph.TaskID, proc int) float64 {
	sum := 0.0
	for _, h := range b.g.Successors(i) {
		sum += h.Bits * float64(b.topo.Dist(proc, b.procOf[h.To]))
	}
	for _, h := range b.g.Predecessors(i) {
		sum += h.Bits * float64(b.topo.Dist(b.procOf[h.To], proc))
	}
	return sum
}

// Propose implements anneal.Problem: move a random task to a random other
// processor.
func (b *balanceState) Propose(rng *anneal.Rand) (float64, bool) {
	n, p := len(b.procOf), len(b.load)
	if n == 0 || p < 2 {
		return 0, false
	}
	i := taskgraph.TaskID(rng.Intn(n))
	cur := b.procOf[i]
	target := rng.Intn(p)
	if target == cur {
		target = (target + 1 + rng.Intn(p-1)) % p
	}
	li := b.g.Load(i)

	devBefore := math.Abs(b.load[cur]-b.avg) + math.Abs(b.load[target]-b.avg)
	commBefore := b.taskCommCost(i, cur)

	b.load[cur] -= li
	b.load[target] += li
	b.procOf[i] = target

	devAfter := math.Abs(b.load[cur]-b.avg) + math.Abs(b.load[target]-b.avg)
	commAfter := b.taskCommCost(i, target)

	delta := b.opt.Wb*(devAfter-devBefore)/b.loadDen + b.opt.Wc*(commAfter-commBefore)/b.commDen
	b.undoTask, b.undoCur, b.undoDst, b.undoLoad = i, cur, target, li
	return delta, true
}

// Undo implements anneal.Problem: revert the last Propose.
func (b *balanceState) Undo() {
	b.load[b.undoCur] += b.undoLoad
	b.load[b.undoDst] -= b.undoLoad
	b.procOf[b.undoTask] = b.undoCur
}

// SaveBest implements anneal.Snapshotter.
func (b *balanceState) SaveBest() {
	b.bestProcOf = append(b.bestProcOf[:0], b.procOf...)
	b.bestLoad = append(b.bestLoad[:0], b.load...)
}

// RestoreBest implements anneal.Snapshotter.
func (b *balanceState) RestoreBest() {
	copy(b.procOf, b.bestProcOf)
	copy(b.load, b.bestLoad)
}

// StaticPolicy executes a directed taskgraph under a fixed mapping: each
// ready task waits until *its* processor is idle. It turns a balancing-
// or mapping-problem solution into a machsim policy, so the experiment
// suite can show why static mappings lose to staged scheduling on
// directed graphs (§4.1 of the paper).
type StaticPolicy struct {
	procOf []int
}

// NewStaticPolicy wraps a mapping; procOf must cover every task.
func NewStaticPolicy(g *taskgraph.Graph, procOf []int) (*StaticPolicy, error) {
	if len(procOf) != g.NumTasks() {
		return nil, fmt.Errorf("assign: mapping covers %d tasks, graph has %d", len(procOf), g.NumTasks())
	}
	return &StaticPolicy{procOf: append([]int(nil), procOf...)}, nil
}

// Name implements machsim.Policy.
func (s *StaticPolicy) Name() string { return "static" }

// Assign implements machsim.Policy.
func (s *StaticPolicy) Assign(ep *machsim.Epoch) []machsim.Assignment {
	idle := make(map[int]bool, len(ep.Idle))
	for _, p := range ep.Idle {
		idle[p] = true
	}
	var out []machsim.Assignment
	for _, t := range ep.Ready {
		p := s.procOf[t]
		if idle[p] {
			out = append(out, machsim.Assignment{Task: t, Proc: p})
			idle[p] = false
		}
	}
	return out
}
