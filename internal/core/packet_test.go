package core

import (
	"math"
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

func TestPacketGreedyInitPicksHighestLevels(t *testing.T) {
	pk, _ := packetFixture(t, 0.5, 0.5)
	pk.initGreedy()
	// Slots take candidates in level order: x (10) then y (6).
	if pk.taskAt[0] != 0 || pk.taskAt[1] != 1 {
		t.Errorf("greedy mapping = %v", pk.taskAt)
	}
	if pk.procOf[2] != -1 {
		t.Error("z selected by greedy init")
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

// Property: Propose's reported delta always equals the recomputed cost
// difference, and undo restores the exact previous state.
func TestPropertyProposeDeltaConsistent(t *testing.T) {
	rng := anneal.NewRand(32)
	pk, _ := packetFixture(t, 0.4, 0.6)
	pk.initRandom(rng)
	for move := 0; move < 500; move++ {
		before := pk.Cost()
		beforeTaskAt := append([]int(nil), pk.taskAt...)
		beforeProcOf := append([]int(nil), pk.procOf...)
		delta, ok := pk.Propose(rng)
		if !ok {
			t.Fatal("no move possible")
		}
		after := pk.Cost()
		if math.Abs((after-before)-delta) > 1e-9 {
			t.Fatalf("move %d: delta %g, recomputed %g", move, delta, after-before)
		}
		if move%2 == 0 {
			pk.Undo()
			if math.Abs(pk.Cost()-before) > 1e-9 {
				t.Fatalf("move %d: undo left cost %g, want %g", move, pk.Cost(), before)
			}
			for i, v := range beforeTaskAt {
				if pk.taskAt[i] != v {
					t.Fatalf("move %d: undo corrupted taskAt", move)
				}
			}
			for i, v := range beforeProcOf {
				if pk.procOf[i] != v {
					t.Fatalf("move %d: undo corrupted procOf", move)
				}
			}
		}
	}
}

// Property: the mapping invariants hold under any move sequence: procOf
// and taskAt stay mutually consistent and the number of placed tasks never
// changes after the initial fill.
func TestPropertyMappingInvariants(t *testing.T) {
	rng := anneal.NewRand(33)
	pk, _ := packetFixture(t, 0.5, 0.5)
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
		_, ok := pk.Propose(rng)
		if !ok {
			t.Fatal("no move")
		}
		if move%3 == 0 {
			pk.Undo()
		}
		if got := countPlaced(); got != want {
			t.Fatalf("move %d: placed count changed %d -> %d", move, want, got)
		}
	}
}

func TestPacketSaveRestoreBest(t *testing.T) {
	rng := anneal.NewRand(34)
	pk, _ := packetFixture(t, 0.5, 0.5)
	pk.initGreedy()
	pk.SaveBest()
	costBefore := pk.Cost()
	for i := 0; i < 50; i++ {
		pk.Propose(rng)
	}
	pk.RestoreBest()
	if math.Abs(pk.Cost()-costBefore) > 1e-12 {
		t.Errorf("restore: cost %g, want %g", pk.Cost(), costBefore)
	}
	if pk.taskAt[0] != 0 || pk.taskAt[1] != 1 {
		t.Errorf("restore: mapping %v", pk.taskAt)
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
	pk.initGreedy()
	if _, ok := pk.Propose(anneal.NewRand(1)); ok {
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
	pk.initGreedy() // a (level 5) on the slot
	rng := anneal.NewRand(35)
	for i := 0; i < 20; i++ {
		_, ok := pk.Propose(rng)
		if !ok {
			t.Fatal("no move")
		}
		if pk.taskAt[0] == -1 {
			t.Fatal("slot emptied by a move")
		}
		pk.Undo()
		if pk.taskAt[0] != 0 {
			t.Fatal("undo lost incumbent")
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
