package assign

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/anneal"
	"repro/internal/machsim"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

func TestSolveMappingCoLocatesNothingButMinimizesTraffic(t *testing.T) {
	// Four tasks in a heavy square of communication, mapped onto a
	// 4-processor ring: the optimum keeps chatting pairs adjacent.
	g := taskgraph.New("square")
	a := g.AddTask("a", 1)
	b := g.AddTask("b", 1)
	c := g.AddTask("c", 1)
	d := g.AddTask("d", 1)
	g.MustAddEdge(a, b, 100)
	g.MustAddEdge(b, c, 100)
	g.MustAddEdge(c, d, 100)
	g.MustAddEdge(d, a, 100)
	ring, err := topology.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SolveMapping(g, ring, MappingOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Each task on its own processor.
	seen := map[int]bool{}
	for _, p := range m.ProcOf {
		if seen[p] {
			t.Fatalf("two tasks share processor %d: %v", p, m.ProcOf)
		}
		seen[p] = true
	}
	// Optimal total traffic: the ring a-b-c-d around the ring costs
	// 4 edges × 100 bits × 1 hop = 400 traffic; max link load 100. Cost
	// = 400 + 100 = 500 at the default weights.
	if m.Cost > 500+1e-9 {
		t.Errorf("mapping cost = %g, want optimal 500", m.Cost)
	}
}

func TestSolveMappingRejectsTooManyTasks(t *testing.T) {
	g := taskgraph.New("g")
	for i := 0; i < 5; i++ {
		g.AddTask("", 1)
	}
	ring, _ := topology.Ring(4)
	if _, err := SolveMapping(g, ring, MappingOptions{}); err == nil {
		t.Error("NT > NP accepted")
	}
	if _, err := SolveMapping(g, nil, MappingOptions{}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := SolveMapping(taskgraph.New("e"), ring, MappingOptions{}); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestSolveBalancingEvensLoad(t *testing.T) {
	// 12 independent tasks of equal load on 4 processors: the balance
	// term alone drives the solution to 3 tasks per processor.
	rng := rand.New(rand.NewSource(2))
	g, err := taskgraph.Independent("ind", 12, 5, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := topology.Hypercube(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SolveBalancing(g, hc, BalancingOptions{Wb: 1, Wc: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, hc.N())
	for _, p := range m.ProcOf {
		counts[p]++
	}
	for p, c := range counts {
		if c != 3 {
			t.Errorf("processor %d got %d tasks, want 3 (counts %v)", p, c, counts)
		}
	}
	if m.Cost > 1e-9 {
		t.Errorf("balanced cost = %g, want 0", m.Cost)
	}
}

func TestSolveBalancingPullsCommunicatingTasksTogether(t *testing.T) {
	// Two clusters with heavy internal traffic and no cross traffic:
	// with communication dominant, each cluster should land on one
	// processor (loads ignored).
	g := taskgraph.New("clusters")
	var c1, c2 []taskgraph.TaskID
	for i := 0; i < 4; i++ {
		c1 = append(c1, g.AddTask("", 1))
		c2 = append(c2, g.AddTask("", 1))
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.MustAddEdge(c1[i], c1[j], 1000)
			g.MustAddEdge(c2[i], c2[j], 1000)
		}
	}
	pairTopo, err := topology.ChainTopo(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SolveBalancing(g, pairTopo, BalancingOptions{Wb: 0.05, Wc: 0.95, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < 4; k++ {
		if m.ProcOf[c1[k]] != m.ProcOf[c1[0]] {
			t.Errorf("cluster 1 split: %v", m.ProcOf)
			break
		}
		if m.ProcOf[c2[k]] != m.ProcOf[c2[0]] {
			t.Errorf("cluster 2 split: %v", m.ProcOf)
			break
		}
	}
}

func TestBalancingDeltaConsistency(t *testing.T) {
	g, err := taskgraph.GnpDAG("g", 15, 0.3, 1, 9, 10, 500, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	ring, err := topology.Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	st := &balanceState{
		g:       g,
		topo:    ring,
		opt:     BalancingOptions{Wb: 0.5, Wc: 0.5},
		procOf:  make([]int, g.NumTasks()),
		load:    make([]float64, ring.N()),
		avg:     g.TotalLoad() / float64(ring.N()),
		loadDen: 2 * g.TotalLoad() * (1 - 1/float64(ring.N())),
		commDen: g.TotalBits() * float64(ring.Diameter()),
	}
	for i := 0; i < g.NumTasks(); i++ {
		st.procOf[i] = i % ring.N()
		st.load[i%ring.N()] += g.Load(taskgraph.TaskID(i))
	}
	rng := anneal.NewRand(5)
	for move := 0; move < 300; move++ {
		before := st.Cost()
		delta, ok := st.Propose(rng)
		if !ok {
			t.Fatal("no move")
		}
		if math.Abs(st.Cost()-before-delta) > 1e-9 {
			t.Fatalf("move %d: delta %g, recomputed %g", move, delta, st.Cost()-before)
		}
		if move%2 == 1 {
			st.Undo()
			if math.Abs(st.Cost()-before) > 1e-9 {
				t.Fatalf("move %d: undo broke cost", move)
			}
		}
	}
}

func TestStaticPolicyRespectsMapping(t *testing.T) {
	g, err := taskgraph.ForkJoin("fj", 4, 10, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	hc, err := topology.Hypercube(2)
	if err != nil {
		t.Fatal(err)
	}
	procOf := make([]int, g.NumTasks())
	for i := range procOf {
		procOf[i] = i % hc.N()
	}
	pol, err := NewStaticPolicy(g, procOf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := machsim.Run(machsim.Model{Graph: g, Topo: hc, Comm: topology.DefaultCommParams()},
		pol, machsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Proc {
		if p != procOf[i] {
			t.Errorf("task %d ran on %d, mapped to %d", i, p, procOf[i])
		}
	}
	if res.Forced != 0 {
		t.Errorf("forced = %d", res.Forced)
	}
}

func TestStaticPolicySerializesSharedProcessor(t *testing.T) {
	// Two independent tasks mapped to the same processor must serialize
	// even though another processor idles.
	g := taskgraph.New("g")
	g.AddTask("a", 10)
	g.AddTask("b", 10)
	pairTopo, err := topology.ChainTopo(2)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := NewStaticPolicy(g, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := machsim.Run(machsim.Model{Graph: g, Topo: pairTopo, Comm: topology.DefaultCommParams()},
		pol, machsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 20 {
		t.Errorf("makespan = %g, want 20 (serialized)", res.Makespan)
	}
}

func TestNewStaticPolicyValidates(t *testing.T) {
	g := taskgraph.New("g")
	g.AddTask("a", 1)
	if _, err := NewStaticPolicy(g, []int{0, 1}); err == nil {
		t.Error("wrong-length mapping accepted")
	}
}

func TestMappingDeterministicBySeed(t *testing.T) {
	g := taskgraph.New("g")
	for i := 0; i < 6; i++ {
		g.AddTask("", 1)
	}
	for i := 0; i < 5; i++ {
		g.MustAddEdge(taskgraph.TaskID(i), taskgraph.TaskID(i+1), 100)
	}
	hc, _ := topology.Hypercube(3)
	m1, err := SolveMapping(g, hc, MappingOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := SolveMapping(g, hc, MappingOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.ProcOf {
		if m1.ProcOf[i] != m2.ProcOf[i] {
			t.Fatalf("same seed, different mappings: %v vs %v", m1.ProcOf, m2.ProcOf)
		}
	}
}
