package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/anneal"
	"repro/internal/machsim"
	"repro/internal/programs"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// referencePropose is the packet's elementary move as it was written
// before Propose stopped mutating: it draws exactly like Propose, applies
// the move (two removes and two places through the running components),
// prices it from the mapping it left, and records the move in the move
// fields for referenceUndo. It is the oracle FuzzPacketMovesMatchApplyUndo
// holds Propose and Apply to.
func referencePropose(pk *refPacket, rng *anneal.Rand) (float64, bool) {
	n, p := len(pk.tasks), len(pk.procs)
	if n == 0 || p == 0 || (n == 1 && p == 1) {
		return 0, false
	}
	i := rng.Draw(&pk.drawN)
	cur := pk.procOf[i]
	if p == 1 && cur == 0 {
		i = wrap(i+1+rng.Draw(&pk.drawN1), n)
		cur = pk.procOf[i]
	}
	j := rng.Draw(&pk.drawP)
	if j == cur {
		j = wrap(j+1+rng.Draw(&pk.drawP1), p)
	}
	other := pk.taskAt[j]

	before := pk.componentCost(i, cur) + pk.componentCost(other, j)
	if cur >= 0 {
		pk.remove(i)
	}
	if other >= 0 {
		pk.remove(other)
	}
	pk.place(i, j)
	if other >= 0 && cur >= 0 {
		pk.place(other, cur)
	}
	after := pk.componentCost(i, pk.procOf[i])
	if other >= 0 {
		after += pk.componentCost(other, pk.procOf[other])
	}
	pk.moveI, pk.moveJ, pk.moveCur, pk.moveOther = i, j, cur, other
	return after - before, true
}

// referenceUndo reverts the move recorded by the last referencePropose.
func referenceUndo(pk *refPacket) {
	i, j, cur, other := pk.moveI, pk.moveJ, pk.moveCur, pk.moveOther
	pk.remove(i)
	if other >= 0 && cur >= 0 {
		pk.remove(other)
	}
	if cur >= 0 {
		pk.place(i, cur)
	}
	if other >= 0 {
		pk.place(other, j)
	}
}

// randomPacket builds a packet of n candidates on p idle processors of a
// 12-processor ring. Every candidate has a random load (its level) and up
// to three finished predecessors on random processors with random
// volumes, so the contribution table is random too. The initial mapping
// is random.
func randomPacket(t *testing.T, seed int64, n, p int) *packet {
	t.Helper()
	rng := anneal.NewRand(seed)
	g := taskgraph.New("fuzz")
	ready := make([]taskgraph.TaskID, n)
	ranOn := map[taskgraph.TaskID]int{}
	for c := range ready {
		load := float64(1 + rng.Intn(9)) // ties in level
		if rng.Intn(2) == 0 {
			load = 0.01 + 20*rng.Float64()
		}
		ready[c] = g.AddTask("c", load)
		for k := rng.Intn(4); k > 0; k-- {
			h := g.AddTask("h", 1)
			ranOn[h] = rng.Intn(12)
			g.MustAddEdge(h, ready[c], 1000*rng.Float64())
		}
	}
	topo, err := topology.Ring(12)
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
	idle := make([]int, 12)
	for k := range idle {
		idle[k] = k
	}
	for k := range idle { // a random p-subset of the ring, in random order
		r := k + rng.Intn(12-k)
		idle[k], idle[r] = idle[r], idle[k]
	}
	pk := newPacket(ready, idle[:p], locate, levels, topo, topology.DefaultCommParams(), g, 0.5, 0.5)
	pk.initRandom(rng)
	return pk
}

// costScale is the magnitude of the two eq. 6 terms of pk's mapping, at
// least 1: the tolerance unit for comparing a cost difference with a
// delta. It is 1 for a packet with sane ranges and grows when near-tied
// levels make ΔFb tiny, which scales the level terms of the contributions
// up. It sums the mapping's components afresh, since an untraced anneal
// leaves the packet's running ones at the init's.
func costScale(pk *packet) float64 {
	var fb, fc float64
	for j, i := range pk.taskAt {
		if i >= 0 {
			fb -= pk.level[i]
			fc += pk.comm(i, j)
		}
	}
	return max(1, math.Abs(pk.wb*fb/pk.dFb)+math.Abs(pk.wc*fc/pk.dFc))
}

// FuzzPacketMovesMatchApplyUndo holds the evaluate-then-apply move equal
// to the apply-then-undo reference over random packets (n, p in 1..12,
// p = 1 and n < p included) and random accept bits: after every move the
// deltas are bit-identical, both mappings agree, both RNG streams are at
// the same point, an unapplied proposal has left the mapping and the
// running components bit-identical, and an applied one has moved Cost()
// by its delta to within 1e-9 of costScale.
func FuzzPacketMovesMatchApplyUndo(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint64(0x5555_5555_5555_5555))
	f.Add(int64(7), uint8(1), uint8(1), uint64(0))
	f.Add(int64(42), uint8(5), uint8(1), uint64(0xffff_0000_ffff_0000))
	f.Add(int64(1991), uint8(2), uint8(9), uint64(0x0123_4567_89ab_cdef))
	f.Add(int64(-3), uint8(12), uint8(12), uint64(1)<<63)
	f.Add(int64(11), uint8(15), uint8(4), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, pRaw uint8, accept uint64) {
		n, p := int(nRaw)%12+1, int(pRaw)%12+1
		pk := reference(randomPacket(t, seed, n, p))
		ref := reference(&packet{})
		ref.cloneFrom(pk.packet)
		rng, refRng := anneal.NewRand(seed+1), anneal.NewRand(seed+1)
		for move := 0; move < 256; move++ {
			taskAt, procOf := slices.Clone(pk.taskAt), slices.Clone(pk.procOf)
			fb, fc, cost := pk.Fb(), pk.Fc(), pk.Cost()
			delta, ok := pk.Propose(rng)
			refDelta, refOK := referencePropose(ref, refRng)
			if ok != refOK || math.Float64bits(delta) != math.Float64bits(refDelta) {
				t.Fatalf("n=%d p=%d move %d: Propose = (%v, %v), reference (%v, %v)",
					n, p, move, delta, ok, refDelta, refOK)
			}
			if !ok {
				return
			}
			if !slices.Equal(pk.taskAt, taskAt) || !slices.Equal(pk.procOf, procOf) ||
				math.Float64bits(pk.Fb()) != math.Float64bits(fb) || math.Float64bits(pk.Fc()) != math.Float64bits(fc) {
				t.Fatalf("n=%d p=%d move %d: Propose changed the state", n, p, move)
			}
			if accept>>(move%64)&1 == 1 {
				pk.Apply()
				if got := pk.Cost() - cost; math.Abs(got-delta) > 1e-9*costScale(pk.packet) {
					t.Fatalf("n=%d p=%d move %d: Apply moved Cost by %v, delta %v", n, p, move, got, delta)
				}
			} else {
				referenceUndo(ref)
			}
			if !slices.Equal(pk.taskAt, ref.taskAt) || !slices.Equal(pk.procOf, ref.procOf) {
				t.Fatalf("n=%d p=%d move %d: mapping %v/%v, reference %v/%v",
					n, p, move, pk.taskAt, pk.procOf, ref.taskAt, ref.procOf)
			}
			next, refNext := *rng, *refRng
			if a, b := next.Int63(), refNext.Int63(); a != b {
				t.Fatalf("n=%d p=%d move %d: RNG streams diverged", n, p, move)
			}
		}
	})
}

// A rejected move changes nothing: over a whole traced Newton-Euler
// solve on a 3-cube, every rejected move leaves the packet's Fb, Fc and
// Ftot bit-equal to their values after the move before it. (A move made
// and then reverted adds and subtracts its terms, which leaves round-off
// in the running sums and so in the Figure 1 trajectories.) The first
// move of each packet has no recorded predecessor and is not checked.
func TestRejectedMovesLeaveCostBitIdentical(t *testing.T) {
	g := programs.NewtonEuler()
	topo, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	comm := topology.DefaultCommParams()
	opt := DefaultOptions()
	opt.Seed = 7
	opt.RecordTrace = true
	sched, err := NewScheduler(g, topo, comm, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machsim.Run(machsim.Model{Graph: g, Topo: topo, Comm: comm}, sched, machsim.Options{}); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, p := range sched.Packets() {
		for k := 1; k < len(p.Trace); k++ {
			prev, tp := p.Trace[k-1], p.Trace[k]
			if tp.Accepted {
				continue
			}
			checked++
			if math.Float64bits(tp.Fb) != math.Float64bits(prev.Fb) ||
				math.Float64bits(tp.Fc) != math.Float64bits(prev.Fc) ||
				math.Float64bits(tp.Ftot) != math.Float64bits(prev.Ftot) {
				t.Fatalf("packet at %g: rejected move %d changed (Fb, Fc, Ftot) from (%v, %v, %v) to (%v, %v, %v)",
					p.Time, tp.Iter, prev.Fb, prev.Fc, prev.Ftot, tp.Fb, tp.Fc, tp.Ftot)
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("checked %d rejected moves, want a whole solve's worth", checked)
	}
	t.Logf("%d rejected moves checked", checked)
}
