// Package core implements the primary contribution of D'Hollander & Devis
// (ICPP 1991): scheduling a directed taskgraph by simulated annealing.
//
// The scheduler operates in stages. At each assignment epoch an
// *annealing packet* is formed from the ready tasks and the idle
// processors (§4.1). A simulated annealing process then decides which
// tasks are selected and where they run, minimizing the weighted,
// per-packet-normalized sum (eq. 6) of
//
//   - the load-balancing cost Fb = −Σ nᵢ·s(i) (eq. 3), which pulls the
//     highest-level tasks into the selection, and
//   - the communication cost Fc = Σ cᵢⱼ (eq. 5) of shipping each selected
//     task's inputs from the processors its predecessors ran on (eq. 4).
//
// Tasks that lose the competition stay in the pool for the next packet.
package core

import (
	"sort"

	"repro/internal/anneal"
	"repro/internal/machsim"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// packet is one annealing packet: the candidate tasks, the free
// processors, and the precomputed cost tables of the placement problem.
//
// All slices are reusable scratch owned by the packet; reset grows them as
// needed and reuses them across epochs, so forming a packet allocates only
// while the high-water mark of (tasks × procs) still grows.
type packet struct {
	tasks []taskgraph.TaskID // candidates (ready tasks)
	procs []int              // idle processors
	// level[i] is the task level of tasks[i].
	level []float64
	// commCost is the row-major n×p table of eq. 5 restricted to tasks[i]
	// placed on procs[j]: the sum of eq. 4 over the task's finished
	// predecessors. Entry (i, j) lives at commCost[i*np+j].
	commCost []float64
	// contrib is the row-major n×p table of contribution(i, j), the
	// normalized eq. 6 cost of candidate i on slot j, filled once per
	// epoch so the annealing moves read it instead of dividing.
	contrib []float64
	np      int // row stride = len(procs)
	// dFb and dFc are the normalization ranges of §4.2c.
	dFb, dFc float64
	wb, wc   float64

	// Mapping state mutated by the annealer. taskAt[j] is the candidate
	// index on processor slot j (or -1); procOf[i] is the processor slot
	// of candidate i (or -1).
	taskAt []int
	procOf []int

	// The raw eq. 3 and eq. 5 components of the mapping, kept by place and
	// remove and, in a traced run, by moveSums after every accepted move.
	// The moves' prices and the running cost come from contrib alone, so
	// an untraced anneal leaves these as the init left them: only Cost
	// before the first move and Figure 1's trace read them.
	rawFb float64
	rawFc float64

	// Precomputed divisors of the moves' draws, Intn(n), Intn(n−1),
	// Intn(p) and Intn(p−1) for n tasks and p processors; a bound whose
	// n would be 0 is left zero and never drawn from.
	drawN, drawN1, drawP, drawP1 anneal.Bound

	// Best-state buffer backing anneal.Snapshotter: the best mapping's
	// taskAt (procOf follows from it) and running components, which, like
	// rawFb and rawFc, only a traced run moves past the init's.
	bestTaskAt []int
	bestFb     float64
	bestFc     float64

	// Scratch for the normalization ranges and greedy/random inits; a
	// traced run of two or more processors keeps the mapping before each
	// move in idxScratch, taskAt's p entries then procOf's n.
	sortScratch []float64
	idxScratch  []int
	// Reusable output buffer for assignments.
	out []machsim.Assignment
}

// Locator reports the processor a finished task ran on (-1 if unknown);
// the machine simulator's ProcOf satisfies it.
type Locator func(taskgraph.TaskID) int

// grow returns s resized to n, reusing its backing array when large
// enough. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// newPacket builds a fresh packet for one epoch; the scheduler prefers
// reset on a long-lived packet so buffers are reused across epochs.
func newPacket(ready []taskgraph.TaskID, idle []int, locate Locator, levels []float64,
	topo *topology.Topology, comm topology.CommParams, g *taskgraph.Graph, wb, wc float64) *packet {

	pk := &packet{}
	pk.reset(ready, idle, locate, levels, topo, comm, g, wb, wc)
	return pk
}

// presize warms every buffer to hold a packet of up to n tasks and p
// processors, so per-epoch resets inside a run never grow them. Called
// once per scheduler with the whole-problem bounds (all tasks ready, all
// processors idle) — a few KB that converts the in-run growth reallocs
// into one up-front batch.
func (pk *packet) presize(n, p int) {
	pk.tasks = grow(pk.tasks, n)[:0]
	pk.procs = grow(pk.procs, p)[:0]
	pk.level = grow(pk.level, n)[:0]
	pk.commCost = grow(pk.commCost, n*p)[:0]
	pk.contrib = grow(pk.contrib, n*p)[:0]
	pk.taskAt = grow(pk.taskAt, p)[:0]
	pk.procOf = grow(pk.procOf, n)[:0]
	pk.bestTaskAt = grow(pk.bestTaskAt, p)[:0]
	pk.sortScratch = grow(pk.sortScratch, n)[:0]
	pk.idxScratch = grow(pk.idxScratch, n+p)[:0]
	pk.out = grow(pk.out, p)[:0]
}

// reset rebuilds the packet cost tables for one epoch in place: the
// candidate tasks, the free processors, via the locator the communication
// cost of every (task, processor) placement given where the predecessors
// executed, and from those the normalized contribution table.
func (pk *packet) reset(ready []taskgraph.TaskID, idle []int, locate Locator, levels []float64,
	topo *topology.Topology, comm topology.CommParams, g *taskgraph.Graph, wb, wc float64) {

	n, p := len(ready), len(idle)
	pk.tasks = append(pk.tasks[:0], ready...)
	pk.procs = append(pk.procs[:0], idle...)
	pk.level = grow(pk.level, n)
	pk.commCost = grow(pk.commCost, n*p)
	pk.contrib = grow(pk.contrib, n*p)
	pk.np = p
	pk.wb, pk.wc = wb, wc
	pk.taskAt = grow(pk.taskAt, p)
	pk.procOf = grow(pk.procOf, n)
	pk.bestTaskAt = grow(pk.bestTaskAt, p)
	pk.rawFb, pk.rawFc = 0, 0

	for j := range pk.taskAt {
		pk.taskAt[j] = -1
	}
	for i := range pk.procOf {
		pk.procOf[i] = -1
	}
	for i, t := range pk.tasks {
		pk.level[i] = levels[t]
		row := pk.commCost[i*p : (i+1)*p]
		for j := range row {
			row[j] = 0
		}
		for _, h := range g.Predecessors(t) {
			src := locate(h.To)
			if src < 0 {
				continue // unreachable: ready tasks have finished predecessors
			}
			for j, proc := range pk.procs {
				row[j] += comm.CommCost(topo.Dist(src, proc), h.Bits)
			}
		}
	}
	pk.drawN, pk.drawN1 = bounds(n)
	pk.drawP, pk.drawP1 = bounds(p)
	pk.dFb = pk.balanceRange()
	pk.dFc = pk.commRange()
	for i := range pk.tasks {
		for j := 0; j < p; j++ {
			pk.contrib[i*p+j] = -pk.wb*pk.level[i]/pk.dFb + pk.wc*pk.comm(i, j)/pk.dFc
		}
	}
}

// bounds returns the draw divisors for k and k−1, each left zero when its
// value is below 1.
func bounds(k int) (b, b1 anneal.Bound) {
	if k >= 1 {
		b = anneal.NewBound(k)
	}
	if k >= 2 {
		b1 = anneal.NewBound(k - 1)
	}
	return b, b1
}

// cloneFrom makes pk an independent copy of src for a restart:
// the immutable cost tables (tasks, procs, level, commCost, contrib) and
// draw divisors are shared, only the mutable mapping state is deep-copied
// into pk's own buffers.
func (pk *packet) cloneFrom(src *packet) {
	pk.tasks = src.tasks
	pk.procs = src.procs
	pk.level = src.level
	pk.commCost = src.commCost
	pk.contrib = src.contrib
	pk.drawN, pk.drawN1, pk.drawP, pk.drawP1 = src.drawN, src.drawN1, src.drawP, src.drawP1
	pk.np = src.np
	pk.dFb, pk.dFc = src.dFb, src.dFc
	pk.wb, pk.wc = src.wb, src.wc
	pk.taskAt = append(pk.taskAt[:0], src.taskAt...)
	pk.procOf = append(pk.procOf[:0], src.procOf...)
	pk.bestTaskAt = grow(pk.bestTaskAt, len(src.taskAt))
	pk.rawFb, pk.rawFc = src.rawFb, src.rawFc
}

// clearMapping empties every slot, ready for a fresh restart init.
func (pk *packet) clearMapping() {
	for j := range pk.taskAt {
		pk.taskAt[j] = -1
	}
	for i := range pk.procOf {
		pk.procOf[i] = -1
	}
	pk.rawFb, pk.rawFc = 0, 0
}

// adoptMapping copies the mapping state of src (a clone sharing pk's cost
// tables) into pk.
func (pk *packet) adoptMapping(src *packet) {
	copy(pk.taskAt, src.taskAt)
	copy(pk.procOf, src.procOf)
	pk.rawFb, pk.rawFc = src.rawFb, src.rawFc
}

// comm returns the eq.-5 cost of candidate i on processor slot j.
func (pk *packet) comm(i, j int) float64 { return pk.commCost[i*pk.np+j] }

// nSelect returns how many tasks a full mapping places: min(#tasks, #procs).
func (pk *packet) nSelect() int {
	if len(pk.tasks) < len(pk.procs) {
		return len(pk.tasks)
	}
	return len(pk.procs)
}

// balanceRange computes ΔFb = (Max − Min)/N_idle, where Max and Min are
// the cumulative level values of the N_idle highest- and lowest-level
// candidates (§4.2c). Degenerate packets get a range of 1 so the division
// is always safe. A packet that selects every candidate has Max = Min
// exactly, but the two sums add the same levels in opposite orders and
// can differ by round-off, so that case returns 1 before summing.
func (pk *packet) balanceRange() float64 {
	k := pk.nSelect()
	if k == 0 || k == len(pk.tasks) {
		return 1
	}
	sorted := append(pk.sortScratch[:0], pk.level...)
	pk.sortScratch = sorted
	sort.Float64s(sorted)
	var lo, hi float64
	for i := 0; i < k; i++ {
		lo += sorted[i]
		hi += sorted[len(sorted)-1-i]
	}
	r := (hi - lo) / float64(len(pk.procs))
	if r <= 0 {
		return 1
	}
	return r
}

// commRange estimates ΔFc by "placing the tasks with the highest
// communication at the largest distance" (§4.2c): the sum, over the
// N_idle candidates with the worst possible placement cost, of that worst
// cost. Packets without any possible communication get a range of 1.
func (pk *packet) commRange() float64 {
	k := pk.nSelect()
	if k == 0 {
		return 1
	}
	worst := grow(pk.sortScratch, len(pk.tasks))
	pk.sortScratch = worst
	for i := range pk.tasks {
		w := 0.0
		for j := 0; j < pk.np; j++ {
			if c := pk.comm(i, j); c > w {
				w = c
			}
		}
		worst[i] = w
	}
	sort.Float64s(worst)
	var sum float64
	for i := 0; i < k; i++ {
		sum += worst[len(worst)-1-i]
	}
	if sum <= 0 {
		return 1
	}
	return sum
}

// contribution returns the normalized cost contribution of candidate i
// placed on processor slot j, -wb·level/ΔFb + wc·comm/ΔFc, as tabulated
// by reset.
func (pk *packet) contribution(i, j int) float64 { return pk.contrib[i*pk.np+j] }

// place assigns candidate i to processor slot j (both currently free) and
// updates the running components.
func (pk *packet) place(i, j int) {
	pk.procOf[i] = j
	pk.taskAt[j] = i
	pk.rawFb -= pk.level[i]
	pk.rawFc += pk.comm(i, j)
}

// remove clears candidate i from its slot.
func (pk *packet) remove(i int) {
	j := pk.procOf[i]
	pk.procOf[i] = -1
	pk.taskAt[j] = -1
	pk.rawFb += pk.level[i]
	pk.rawFc -= pk.comm(i, j)
}

// moveSums updates the running components for an accepted move that takes
// candidate i from slot cur to slot j and other, the candidate that was on
// j, to cur, either of cur and other −1 for none. It takes the reference
// move's steps in their order — remove i, remove other, place i on j,
// place other on cur — with remove's and place's expressions, so the sums
// end where that move leaves them, to the bit. The mapping is not touched.
func (pk *packet) moveSums(i, j, cur, other int) {
	if cur >= 0 {
		pk.rawFb += pk.level[i]
		pk.rawFc -= pk.comm(i, cur)
	}
	if other >= 0 {
		pk.rawFb += pk.level[other]
		pk.rawFc -= pk.comm(other, j)
	}
	pk.rawFb -= pk.level[i]
	pk.rawFc += pk.comm(i, j)
	if other >= 0 && cur >= 0 {
		pk.rawFb -= pk.level[other]
		pk.rawFc += pk.comm(other, cur)
	}
}

// Cost returns the mapping's eq. 6 cost, F = wb·Fb/ΔFb + wc·Fc/ΔFc.
func (pk *packet) Cost() float64 { return pk.wb*pk.rawFb/pk.dFb + pk.wc*pk.rawFc/pk.dFc }

// Fb returns the running raw load-balancing cost (eq. 3), rawFb.
func (pk *packet) Fb() float64 { return pk.rawFb }

// Fc returns the running raw communication cost (eq. 5), rawFc.
func (pk *packet) Fc() float64 { return pk.rawFc }

// SaveBest implements anneal.Snapshotter by copying the mapping's taskAt
// and running components into the packet's reusable best buffer.
func (pk *packet) SaveBest() {
	copy(pk.bestTaskAt, pk.taskAt)
	pk.bestFb, pk.bestFc = pk.rawFb, pk.rawFc
}

// RestoreBest implements anneal.Snapshotter: taskAt comes back from the
// best buffer and procOf is rebuilt from it. A run restores at most once.
func (pk *packet) RestoreBest() {
	copy(pk.taskAt, pk.bestTaskAt)
	for i := range pk.procOf {
		pk.procOf[i] = -1
	}
	for j, i := range pk.taskAt {
		if i >= 0 {
			pk.procOf[i] = j
		}
	}
	pk.rawFb, pk.rawFc = pk.bestFb, pk.bestFc
}

// initWarm seeds the mapping from a whole-graph task→processor assignment
// (taskgraph.ProjectAssignment's output, indexed by task ID, −1 meaning
// unseeded): every candidate whose seed processor is idle in this packet
// keeps its placement, and the remaining slots fill in order with the
// unseeded candidates in HLF order (highest level first, ties to the
// lower index). Deterministic, no RNG draw.
func (pk *packet) initWarm(assign []int) {
	k := pk.nSelect()
	placed := 0
	for i, t := range pk.tasks {
		if placed >= k {
			break
		}
		want := assign[t]
		if want < 0 {
			continue
		}
		for j, p := range pk.procs {
			if p == want && pk.taskAt[j] < 0 {
				pk.place(i, j)
				placed++
				break
			}
		}
	}
	if placed >= k {
		return
	}
	idx := grow(pk.idxScratch, len(pk.tasks))
	pk.idxScratch = idx
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return pk.level[idx[a]] > pk.level[idx[b]] })
	j := 0
	for _, i := range idx {
		if placed >= k {
			break
		}
		if pk.procOf[i] >= 0 {
			continue
		}
		for ; j < len(pk.taskAt); j++ {
			if pk.taskAt[j] < 0 {
				pk.place(i, j)
				placed++
				j++
				break
			}
		}
	}
}

// initRandom fills the processor slots with uniformly random candidates.
// The inside-out Fisher-Yates below consumes the RNG exactly like
// rand.Perm but fills the reusable index scratch instead of allocating.
func (pk *packet) initRandom(rng *anneal.Rand) {
	idx := grow(pk.idxScratch, len(pk.tasks))
	pk.idxScratch = idx
	for i := range idx {
		j := rng.Intn(i + 1)
		idx[i] = idx[j]
		idx[j] = i
	}
	k := pk.nSelect()
	for j := 0; j < k; j++ {
		pk.place(idx[j], j)
	}
}

// assignments converts the final mapping into simulator assignments. The
// returned slice is the packet's reusable buffer, valid until the next
// call.
func (pk *packet) assignments() []machsim.Assignment {
	out := pk.out[:0]
	for j, i := range pk.taskAt {
		if i >= 0 {
			out = append(out, machsim.Assignment{Task: pk.tasks[i], Proc: pk.procs[j]})
		}
	}
	pk.out = out
	return out
}
