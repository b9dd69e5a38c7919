package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/anneal"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// packetFixture builds a 3-candidate, 2-processor packet on a 3-processor
// chain. Tasks x (level 10), y (level 6), z (level 2); x's predecessor ran
// on P0, y's on P2, z has no predecessor. Idle processors: P0 and P1.
func packetFixture(t *testing.T, wb, wc float64) (*packet, *taskgraph.Graph) {
	t.Helper()
	g := taskgraph.New("fix")
	px := g.AddTask("px", 1) // finished predecessors
	py := g.AddTask("py", 1)
	x := g.AddTask("x", 10)
	y := g.AddTask("y", 6)
	z := g.AddTask("z", 2)
	g.MustAddEdge(px, x, 40)
	g.MustAddEdge(py, y, 80)

	topo, err := topology.ChainTopo(3)
	if err != nil {
		t.Fatal(err)
	}
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	locate := func(id taskgraph.TaskID) int {
		switch id {
		case px:
			return 0
		case py:
			return 2
		default:
			return -1
		}
	}
	pk := newPacket([]taskgraph.TaskID{x, y, z}, []int{0, 1}, locate, levels,
		topo, topology.DefaultCommParams(), g, wb, wc)
	return pk, g
}

func TestPacketCommCostTable(t *testing.T) {
	pk, _ := packetFixture(t, 0.5, 0.5)
	// Candidate 0 = x, predecessor on P0.
	// On slot 0 (P0): same proc, cost 0.
	// On slot 1 (P1): d=1, w=4 => 4+7 = 11.
	if pk.comm(0, 0) != 0 {
		t.Errorf("x on P0 cost = %g, want 0", pk.comm(0, 0))
	}
	if math.Abs(pk.comm(0, 1)-11) > 1e-12 {
		t.Errorf("x on P1 cost = %g, want 11", pk.comm(0, 1))
	}
	// Candidate 1 = y, predecessor on P2 (w = 8).
	// On P0: d=2 => 2*8 + τ + σ = 16+9+7 = 32. On P1: d=1 => 8+7 = 15.
	if math.Abs(pk.comm(1, 0)-32) > 1e-12 {
		t.Errorf("y on P0 cost = %g, want 32", pk.comm(1, 0))
	}
	if math.Abs(pk.comm(1, 1)-15) > 1e-12 {
		t.Errorf("y on P1 cost = %g, want 15", pk.comm(1, 1))
	}
	// Candidate 2 = z: no predecessors, zero comm everywhere.
	if pk.comm(2, 0) != 0 || pk.comm(2, 1) != 0 {
		t.Errorf("z costs = %v, want zeros", pk.commCost[2*pk.np:])
	}
}

func TestPacketNormalizationRanges(t *testing.T) {
	pk, _ := packetFixture(t, 0.5, 0.5)
	// Levels of candidates: x=10, y=6, z=2. N_idle = 2.
	// Max = 10+6 = 16, Min = 2+6 = 8 => ΔFb = (16-8)/2 = 4.
	if math.Abs(pk.dFb-4) > 1e-12 {
		t.Errorf("ΔFb = %g, want 4", pk.dFb)
	}
	// Worst per-candidate comm: x=11, y=32, z=0; top-2 sum = 43.
	if math.Abs(pk.dFc-43) > 1e-12 {
		t.Errorf("ΔFc = %g, want 43", pk.dFc)
	}
}

func TestPacketCostTracksPlacements(t *testing.T) {
	pk, _ := packetFixture(t, 0.5, 0.5)
	if pk.Cost() != 0 || pk.Fb() != 0 || pk.Fc() != 0 {
		t.Fatalf("empty mapping cost = %g", pk.Cost())
	}
	pk.place(0, 0) // x on P0: level 10, comm 0
	pk.place(1, 1) // y on P1: level 6, comm 15
	if math.Abs(pk.Fb()-(-16)) > 1e-12 {
		t.Errorf("Fb = %g, want -16", pk.Fb())
	}
	if math.Abs(pk.Fc()-15) > 1e-12 {
		t.Errorf("Fc = %g, want 15", pk.Fc())
	}
	want := 0.5*(-16)/4 + 0.5*15/43
	if math.Abs(pk.Cost()-want) > 1e-12 {
		t.Errorf("Cost = %g, want %g", pk.Cost(), want)
	}
	pk.remove(1)
	if math.Abs(pk.Fb()-(-10)) > 1e-12 || pk.Fc() != 0 {
		t.Errorf("after remove: Fb=%g Fc=%g", pk.Fb(), pk.Fc())
	}
}

// initHLF fills pk's slots by initWarm's rule with no task seeded: every
// slot in order takes the highest-level candidate left (HLF).
func initHLF(pk *packet) {
	unseeded := make([]int, int(slices.Max(pk.tasks))+1)
	for t := range unseeded {
		unseeded[t] = -1
	}
	pk.initWarm(unseeded)
}

// With no task seeded, initWarm fills the slots in order with the
// candidates in level order (ties to the lower index), and leaves the
// rest unplaced. The fixture's levels are x 10, y 6 and z 2; a second
// packet of levels 3, 7, 3, 7, 1 on three slots checks the tie order.
func TestPacketWarmFillPicksHighestLevels(t *testing.T) {
	pk, _ := packetFixture(t, 0.5, 0.5)
	initHLF(pk)
	// Slots take candidates in level order: x (10) then y (6).
	if pk.taskAt[0] != 0 || pk.taskAt[1] != 1 {
		t.Errorf("HLF mapping = %v", pk.taskAt)
	}
	if pk.procOf[2] != -1 {
		t.Error("z selected by the HLF fill")
	}

	g := taskgraph.New("ties")
	var ready []taskgraph.TaskID
	for _, load := range []float64{3, 7, 3, 7, 1} {
		ready = append(ready, g.AddTask("t", load))
	}
	levels, _ := g.Levels()
	topo, _ := topology.ChainTopo(3)
	pk = newPacket(ready, []int{0, 1, 2}, func(taskgraph.TaskID) int { return -1 },
		levels, topo, topology.DefaultCommParams(), g, 0.5, 0.5)
	initHLF(pk)
	if want := []int{1, 3, 0}; !slices.Equal(pk.taskAt, want) {
		t.Errorf("HLF mapping with ties = %v, want %v", pk.taskAt, want)
	}
}

func TestPacketInitRandomFillsAllSlots(t *testing.T) {
	rng := anneal.NewRand(31)
	for trial := 0; trial < 10; trial++ {
		pk, _ := packetFixture(t, 0.5, 0.5)
		pk.initRandom(rng)
		placed := 0
		for _, i := range pk.taskAt {
			if i >= 0 {
				placed++
			}
		}
		if placed != 2 {
			t.Fatalf("random init placed %d, want 2", placed)
		}
	}
}

// unchangedBy reports whether pk's mapping and running components are
// bit-identical to the given copies.
func unchangedBy(pk *packet, taskAt, procOf []int, fb, fc float64) bool {
	return slices.Equal(pk.taskAt, taskAt) && slices.Equal(pk.procOf, procOf) &&
		math.Float64bits(pk.Fb()) == math.Float64bits(fb) &&
		math.Float64bits(pk.Fc()) == math.Float64bits(fc)
}

// Property: a proposal that is not applied leaves the mapping and the
// running components bit-identical, and applying it moves Cost by exactly
// the reported delta (to round-off). Every other move is applied to the
// packet; the rest are applied to a clone, so every delta is checked.
func TestPropertyProposeDeltaConsistent(t *testing.T) {
	rng := anneal.NewRand(32)
	fix, _ := packetFixture(t, 0.4, 0.6)
	pk := reference(fix)
	pk.initRandom(rng)
	var clone packet
	for move := 0; move < 500; move++ {
		before := pk.Cost()
		taskAt, procOf := slices.Clone(pk.taskAt), slices.Clone(pk.procOf)
		fb, fc := pk.Fb(), pk.Fc()
		delta, ok := pk.Propose(rng)
		if !ok {
			t.Fatal("no move possible")
		}
		if !unchangedBy(pk.packet, taskAt, procOf, fb, fc) {
			t.Fatalf("move %d: Propose changed the state", move)
		}
		applied := pk
		if move%2 == 0 { // rejected: the packet keeps its state
			clone.cloneFrom(pk.packet)
			applied = &refPacket{&clone, pk.moveI, pk.moveJ, pk.moveCur, pk.moveOther}
		}
		applied.Apply()
		if after := applied.Cost(); math.Abs((after-before)-delta) > 1e-9 {
			t.Fatalf("move %d: delta %g, recomputed %g", move, delta, after-before)
		}
	}
}

// Property: the mapping invariants hold under any sequence of applied and
// unapplied proposals: procOf and taskAt stay mutually consistent, the
// number of placed tasks never changes after the initial fill, and an
// unapplied proposal changes nothing.
func TestPropertyMappingInvariants(t *testing.T) {
	rng := anneal.NewRand(33)
	fix, _ := packetFixture(t, 0.5, 0.5)
	pk := reference(fix)
	pk.initRandom(rng)
	countPlaced := func() int {
		n := 0
		for i, j := range pk.procOf {
			if j >= 0 {
				if pk.taskAt[j] != i {
					t.Fatalf("inconsistent mapping: procOf[%d]=%d but taskAt=%v", i, j, pk.taskAt)
				}
				n++
			}
		}
		return n
	}
	want := countPlaced()
	for move := 0; move < 400; move++ {
		taskAt, procOf := slices.Clone(pk.taskAt), slices.Clone(pk.procOf)
		fb, fc := pk.Fb(), pk.Fc()
		_, ok := pk.Propose(rng)
		if !ok {
			t.Fatal("no move")
		}
		if move%3 == 0 {
			if !unchangedBy(pk.packet, taskAt, procOf, fb, fc) {
				t.Fatalf("move %d: unapplied proposal changed the state", move)
			}
		} else {
			pk.Apply()
		}
		if got := countPlaced(); got != want {
			t.Fatalf("move %d: placed count changed %d -> %d", move, want, got)
		}
	}
}

func TestPacketSaveRestoreBest(t *testing.T) {
	rng := anneal.NewRand(34)
	fix, _ := packetFixture(t, 0.5, 0.5)
	initHLF(fix)
	pk := reference(fix)
	pk.SaveBest()
	costBefore := pk.Cost()
	procOf := slices.Clone(pk.procOf)
	for i := 0; i < 50; i++ {
		pk.Propose(rng)
		pk.Apply()
	}
	pk.RestoreBest()
	if math.Abs(pk.Cost()-costBefore) > 1e-12 {
		t.Errorf("restore: cost %g, want %g", pk.Cost(), costBefore)
	}
	if pk.taskAt[0] != 0 || pk.taskAt[1] != 1 || !slices.Equal(pk.procOf, procOf) {
		t.Errorf("restore: mapping %v, procOf %v; want procOf %v", pk.taskAt, pk.procOf, procOf)
	}
}

func TestPacketAssignments(t *testing.T) {
	pk, _ := packetFixture(t, 0.5, 0.5)
	pk.place(0, 0)
	pk.place(2, 1)
	as := pk.assignments()
	if len(as) != 2 {
		t.Fatalf("assignments = %v", as)
	}
	// Slot 0 is processor 0, slot 1 is processor 1; candidates 0 and 2 are
	// tasks x (ID 2) and z (ID 4) of the fixture graph.
	if as[0].Proc != 0 || as[0].Task != 2 {
		t.Errorf("assignment 0 = %+v", as[0])
	}
	if as[1].Proc != 1 || as[1].Task != 4 {
		t.Errorf("assignment 1 = %+v", as[1])
	}
}

func TestPacketSingleTaskSingleProcHasNoMoves(t *testing.T) {
	g := taskgraph.New("tiny")
	a := g.AddTask("a", 1)
	levels, _ := g.Levels()
	topo, _ := topology.ChainTopo(2)
	pk := newPacket([]taskgraph.TaskID{a}, []int{0}, func(taskgraph.TaskID) int { return -1 },
		levels, topo, topology.DefaultCommParams(), g, 0.5, 0.5)
	initHLF(pk)
	if _, ok := reference(pk).Propose(anneal.NewRand(1)); ok {
		t.Error("move proposed on a 1x1 packet")
	}
}

func TestPacketSingleProcMovesSwapTasks(t *testing.T) {
	// Two candidates, one slot: every move must exchange the incumbent.
	g := taskgraph.New("duo")
	a := g.AddTask("a", 5)
	b := g.AddTask("b", 3)
	levels, _ := g.Levels()
	topo, _ := topology.ChainTopo(2)
	pk := newPacket([]taskgraph.TaskID{a, b}, []int{0}, func(taskgraph.TaskID) int { return -1 },
		levels, topo, topology.DefaultCommParams(), g, 1, 0)
	initHLF(pk) // a (level 5) on the slot
	ref := reference(pk)
	rng := anneal.NewRand(35)
	for i := 0; i < 20; i++ {
		incumbent := pk.taskAt[0]
		_, ok := ref.Propose(rng)
		if !ok {
			t.Fatal("no move")
		}
		if pk.taskAt[0] != incumbent {
			t.Fatal("Propose changed the incumbent")
		}
		ref.Apply()
		if pk.taskAt[0] != 1-incumbent {
			t.Fatalf("slot holds %d after the move, want the other task", pk.taskAt[0])
		}
	}
}

func TestPacketDegenerateRangesGuarded(t *testing.T) {
	// All candidates have equal levels and no communication: both ranges
	// degenerate and must be guarded to 1.
	g := taskgraph.New("flat")
	a := g.AddTask("a", 4)
	b := g.AddTask("b", 4)
	levels, _ := g.Levels()
	topo, _ := topology.ChainTopo(2)
	pk := newPacket([]taskgraph.TaskID{a, b}, []int{0, 1}, func(taskgraph.TaskID) int { return -1 },
		levels, topo, topology.DefaultCommParams(), g, 0.5, 0.5)
	if pk.dFb != 1 || pk.dFc != 1 {
		t.Errorf("degenerate ranges = %g, %g; want 1, 1", pk.dFb, pk.dFc)
	}
}

// A packet that selects every candidate (here 10 tasks on 10 idle
// processors) places the same levels whatever the mapping, so its
// load-balancing range is degenerate and must be exactly 1, not the
// round-off left by summing non-integer levels in two orders. Every move
// is then priced by its communication change alone.
func TestPacketFullSelectionBalanceRange(t *testing.T) {
	g := taskgraph.New("full")
	rng := anneal.NewRand(99)
	ready := make([]taskgraph.TaskID, 10)
	ranOn := map[taskgraph.TaskID]int{}
	for c := range ready {
		ready[c] = g.AddTask("c", 0.1+1.7*float64(c)+0.01*float64(c*c))
		h := g.AddTask("h", 1)
		ranOn[h] = rng.Intn(10)
		g.MustAddEdge(h, ready[c], 1000*rng.Float64())
	}
	topo, err := topology.Ring(10)
	if err != nil {
		t.Fatal(err)
	}
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	locate := func(id taskgraph.TaskID) int {
		if proc, ok := ranOn[id]; ok {
			return proc
		}
		return -1
	}
	idle := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	pk := reference(newPacket(ready, idle, locate, levels, topo, topology.DefaultCommParams(), g, 0.5, 0.5))
	if pk.dFb != 1 {
		t.Fatalf("ΔFb = %g, want 1", pk.dFb)
	}
	pk.initRandom(rng)
	for move := 0; move < 500; move++ {
		delta, ok := pk.Propose(rng)
		if !ok {
			t.Fatal("no move")
		}
		i, j, cur, other := pk.moveI, pk.moveJ, pk.moveCur, pk.moveOther
		comm := (pk.comm(i, j) + pk.comm(other, cur)) - (pk.comm(i, cur) + pk.comm(other, j))
		if want := pk.wc * comm / pk.dFc; math.Abs(delta-want) > 1e-9 {
			t.Fatalf("move %d: delta %v, communication-only difference %v", move, delta, want)
		}
		if move%2 == 0 {
			pk.Apply()
		}
	}
}
