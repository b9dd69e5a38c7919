package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/anneal"
	"repro/internal/cliutil"
	"repro/internal/machsim"
	"repro/internal/programs"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// syntheticPacket builds an n-candidate packet on p processors whose
// contribution table, levels and communication costs are drawn from rng
// instead of formed from a graph. Half the contributions come from a small
// pool with ties, +0 and −0, so equal and signed-zero deltas occur. The
// initial mapping is random and fills min(n, p) slots.
func syntheticPacket(rng *anneal.Rand, n, p int) *packet {
	pool := []float64{0, math.Copysign(0, -1), -0.5, 0.25, 1, -1}
	pk := &packet{np: p, wb: 0.5, wc: 0.5}
	pk.tasks, pk.procs = make([]taskgraph.TaskID, n), make([]int, p)
	pk.level, pk.commCost, pk.contrib = make([]float64, n), make([]float64, n*p), make([]float64, n*p)
	pk.taskAt, pk.procOf, pk.bestTaskAt = make([]int, p), make([]int, n), make([]int, p)
	for j := range pk.procs {
		pk.procs[j], pk.taskAt[j] = j, -1
	}
	for i := range pk.tasks {
		pk.tasks[i], pk.procOf[i] = taskgraph.TaskID(i), -1
		pk.level[i] = float64(rng.Intn(4)) * rng.Float64()
	}
	for k := range pk.contrib {
		pk.contrib[k] = 2*rng.Float64() - 1
		if rng.Intn(2) == 0 {
			pk.contrib[k] = pool[rng.Intn(len(pool))]
		}
		pk.commCost[k] = float64(rng.Intn(3)) * 100 * rng.Float64()
	}
	pk.dFb, pk.dFc = 1+rng.Float64(), 1+50*rng.Float64()
	pk.drawN, pk.drawN1 = bounds(n)
	pk.drawP, pk.drawP1 = bounds(p)
	pk.initRandom(rng)
	return pk
}

// FuzzStageMatchesMinimize holds the scheduler's annealing loop equal to
// anneal.Minimize, which anneals a clone of the same packet through the
// reference move (refPacket), over random packets (n in 1..128 at p = 1,
// n and p in 1..12 otherwise), random seeds, a plain or warm-offset
// cooling schedule, an optional plateau rule and small move budgets and
// caps: the same final mapping and FinalCost to the bit, equal Moves,
// Accepted, Stages and PlateauStop, and both RNG streams at the same
// position. A third clone anneals with RecordTrace on, which steps the
// kernels one move at a time and keeps the running components: it must
// end with the untraced run's report, mapping and RNG position and with
// Minimize's components to the bit, and its trace must hold one point per
// move, numbered 0..Moves−1, marked accepted as often as the report
// counts. (An untraced run keeps no components; TestTracedSumsMatchApply
// checks the traced ones after every move.)
func FuzzStageMatchesMinimize(f *testing.F) {
	// 1 × 1 packets, which have no move: on the plain schedule, and on a
	// warm-offset one with a plateau rule and a cap.
	f.Add(int64(1), uint8(0), uint8(0), uint16(19), uint16(0), uint8(0))
	f.Add(int64(2), uint8(128), uint8(12), uint16(5), uint16(7), uint8(0x07))
	f.Add(int64(7), uint8(88), uint8(0), uint16(179), uint16(0), uint8(0x0b))
	f.Add(int64(42), uint8(13), uint8(0), uint16(40), uint16(37), uint8(0x31))
	f.Add(int64(1991), uint8(126), uint8(0), uint16(399), uint16(2500), uint8(0xfe))
	f.Add(int64(-5), uint8(3), uint8(0), uint16(3), uint16(100), uint8(0x0a))
	f.Add(int64(11), uint8(9), uint8(2), uint16(59), uint16(0), uint8(0x14))
	f.Add(int64(23), uint8(4), uint8(7), uint16(19), uint16(300), uint8(0x0d))
	f.Add(int64(99), uint8(11), uint8(11), uint16(287), uint16(4000), uint8(0x08))
	// p = 1 with n = 128, T0 = 1, 60 stages of 400 moves and neither a cap
	// nor a plateau stop: the kernel meets moves in their bucket's band.
	f.Add(int64(30), uint8(127), uint8(0), uint16(399), uint16(0), uint8(0))
	// The same schedule for Grid.Stage: p = 2 with n = 12, and p = 12
	// with n = 3.
	f.Add(int64(31), uint8(11), uint8(1), uint16(399), uint16(0), uint8(0))
	f.Add(int64(32), uint8(2), uint8(11), uint16(399), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, pRaw uint8, perStage, maxMoves uint16, flags uint8) {
		p := int(pRaw)%12 + 1
		n := int(nRaw)%12 + 1
		if p == 1 {
			n = int(nRaw)%128 + 1
		}
		pk := syntheticPacket(anneal.NewRand(seed), n, p)
		ref, traced := &packet{}, &packet{}
		ref.cloneFrom(pk)
		traced.cloneFrom(pk)

		var cooling anneal.Cooling = anneal.Geometric{T0: 1, Alpha: 0.9, NumStages: 60}
		if flags&1 == 1 {
			cooling = offsetCooling{base: cooling, skip: int(flags>>1) % 55}
		}
		aopt := anneal.Options{
			Cooling:       cooling,
			MovesPerStage: int(perStage)%400 + 1,
			PlateauStages: int(flags>>2) % 6,
			PlateauEps:    1e-12,
			MaxMoves:      int(maxMoves) % 5000,
		}
		s := &Scheduler{rng: anneal.NewRand(seed + 1)}
		var rep PacketReport
		s.anneal(pk, aopt, &rep)

		refRng := anneal.NewRand(seed + 1)
		ropt := aopt
		ropt.RNG = refRng
		res, err := anneal.Minimize(reference(ref), ropt)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Moves != res.Moves || rep.Accepted != res.Accepted || rep.Stages != res.Stages ||
			rep.PlateauStop != res.PlateauStop || math.Float64bits(rep.FinalCost) != math.Float64bits(res.FinalCost) {
			t.Fatalf("n=%d p=%d: loop %+v, Minimize %+v", n, p, rep, res)
		}
		if !slices.Equal(pk.taskAt, ref.taskAt) || !slices.Equal(pk.procOf, ref.procOf) {
			t.Fatalf("n=%d p=%d: loop mapping %v, Minimize %v", n, p, pk.taskAt, ref.taskAt)
		}

		ts := &Scheduler{rng: anneal.NewRand(seed + 1)}
		ts.opt.RecordTrace = true
		var trep PacketReport
		ts.anneal(traced, aopt, &trep)
		if !sameReport(trep, rep) || !slices.Equal(traced.taskAt, pk.taskAt) || !slices.Equal(traced.procOf, pk.procOf) {
			t.Fatalf("n=%d p=%d: traced run %+v with mapping %v, untraced %+v with %v", n, p, trep, traced.taskAt, rep, pk.taskAt)
		}
		if math.Float64bits(traced.Fb()) != math.Float64bits(ref.Fb()) || math.Float64bits(traced.Fc()) != math.Float64bits(ref.Fc()) {
			t.Fatalf("n=%d p=%d: traced run ends at Fb %v, Fc %v, Minimize at %v, %v", n, p, traced.Fb(), traced.Fc(), ref.Fb(), ref.Fc())
		}
		if len(trep.Trace) != rep.Moves {
			t.Fatalf("n=%d p=%d: %d trace points for %d moves", n, p, len(trep.Trace), rep.Moves)
		}
		accepted := 0
		for k, tp := range trep.Trace {
			if tp.Iter != k {
				t.Fatalf("n=%d p=%d: trace point %d has Iter %d", n, p, k, tp.Iter)
			}
			if tp.Accepted {
				accepted++
			}
		}
		if accepted != rep.Accepted {
			t.Fatalf("n=%d p=%d: trace marks %d moves accepted, the report %d", n, p, accepted, rep.Accepted)
		}

		if a, b, c := s.rng.Int63(), refRng.Int63(), ts.rng.Int63(); a != b || a != c {
			t.Fatalf("n=%d p=%d: RNG streams diverged", n, p)
		}
	})
}

// TestTracedSumsMatchApply holds the running components a traced run
// keeps to the reference move's at every trace point. A clone of each
// packet replays the run's moves through Propose, the Float64 draw and
// anneal.Accept, applies the accepted ones with Apply, and must price
// every move, decide it and reach the point's Fb, Fc and Ftot to the bit.
// Levels and communication costs come mostly from a pool with ties, +0
// and −0, and the sums are set to −0 after the init, whatever it placed.
// (A sum that place and remove keep from +0 is never −0, so there no
// move depends on the sign of an absent term's zero.) From this start a
// step that adds +0 where Apply adds nothing turns a −0 sum into +0. The
// shapes are p = 1, where every move brings in a candidate from off the
// slot, n > p, where some moves do, n < p, where some displace no
// candidate, and n = p.
func TestTracedSumsMatchApply(t *testing.T) {
	nz := math.Copysign(0, -1)
	pool := []float64{0, nz, 0.5, 1.25, 3}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	var noCur, noOther, negZero int
	for _, shape := range []struct{ n, p int }{{2, 1}, {9, 1}, {7, 3}, {2, 5}, {4, 4}} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := anneal.NewRand(seed)
			pk := syntheticPacket(rng, shape.n, shape.p)
			for i := range pk.level {
				pk.level[i] = pool[rng.Intn(len(pool))]
			}
			for k := range pk.commCost {
				if rng.Intn(4) != 0 {
					pk.commCost[k] = pool[rng.Intn(len(pool))]
				}
			}
			pk.rawFb, pk.rawFc = nz, nz
			ref := reference(&packet{})
			ref.cloneFrom(pk)

			s := &Scheduler{rng: anneal.NewRand(seed + 1)}
			s.opt.RecordTrace = true
			aopt := anneal.Options{Cooling: anneal.Geometric{T0: 1, Alpha: 0.8, NumStages: 30}, MovesPerStage: 40}
			var rep PacketReport
			s.anneal(pk, aopt, &rep)
			if len(rep.Trace) == 0 {
				t.Fatalf("n=%d p=%d seed %d: no trace", shape.n, shape.p, seed)
			}
			refRng := anneal.NewRand(seed + 1)
			for _, tp := range rep.Trace {
				delta, _ := ref.Propose(refRng)
				accepted := anneal.Accept(refRng.Float64(), delta, tp.Temp, 1/tp.Temp)
				if accepted {
					ref.Apply()
					if ref.moveCur < 0 {
						noCur++
					}
					if ref.moveOther < 0 {
						noOther++
					}
				}
				if accepted != tp.Accepted || !same(delta, tp.Delta) || !same(ref.Fb(), tp.Fb) || !same(ref.Fc(), tp.Fc) || !same(ref.Cost(), tp.Ftot) {
					t.Fatalf("n=%d p=%d seed %d move %d: traced %+v; Apply reached Delta %v, Fb %v, Fc %v, Ftot %v, accepted %v",
						shape.n, shape.p, seed, tp.Iter, tp, delta, ref.Fb(), ref.Fc(), ref.Cost(), accepted)
				}
				if tp.Fb == 0 && math.Signbit(tp.Fb) || tp.Fc == 0 && math.Signbit(tp.Fc) {
					negZero++
				}
			}
		}
	}
	if noCur == 0 || noOther == 0 || negZero == 0 {
		t.Fatalf("%d accepted moves from off the slots, %d onto a free slot, %d points at a −0 sum; want some of each", noCur, noOther, negZero)
	}
	t.Logf("%d accepted moves from off the slots, %d onto a free slot, %d points at a −0 sum", noCur, noOther, negZero)
}

// The stage accounting at its two edges, in both kernels, untraced and
// traced. A MaxMoves budget used up exactly at a stage's end stops the run
// one empty stage later, which the report counts; one used up inside a
// stage stops it in that stage. A packet with no alternative mapping (one
// candidate, one processor) ends in its first stage with no move. A
// traced run ends with the same report and one trace point per move.
func TestStageAccountingEdges(t *testing.T) {
	cases := []struct {
		name          string
		n, p          int
		perStage, cap int
		stages, moves int
	}{
		{"p=1 cap on a stage boundary", 40, 1, 50, 150, 4, 150},
		{"p=1 cap inside a stage", 40, 1, 50, 170, 4, 170},
		{"p=3 cap on a stage boundary", 8, 3, 30, 300, 11, 300},
		{"p=3 cap inside a stage", 8, 3, 30, 301, 11, 301},
		{"no alternative mapping", 1, 1, 20, 20000, 1, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var untraced PacketReport
			for _, trace := range []bool{false, true} {
				pk := syntheticPacket(anneal.NewRand(3), c.n, c.p)
				initial := pk.Cost()
				s := &Scheduler{rng: anneal.NewRand(4)}
				s.opt.RecordTrace = trace
				aopt := anneal.Options{
					Cooling:       anneal.Geometric{T0: 1, Alpha: 0.9, NumStages: 60},
					MovesPerStage: c.perStage,
					MaxMoves:      c.cap,
				}
				var rep PacketReport
				s.anneal(pk, aopt, &rep)
				if rep.Stages != c.stages || rep.Moves != c.moves || rep.PlateauStop {
					t.Fatalf("traced %v: %d stages, %d moves, plateau stop %v; want %d stages, %d moves",
						trace, rep.Stages, rep.Moves, rep.PlateauStop, c.stages, c.moves)
				}
				if c.moves == 0 && math.Float64bits(rep.FinalCost) != math.Float64bits(initial) {
					t.Fatalf("traced %v: FinalCost %v, want the initial cost %v", trace, rep.FinalCost, initial)
				}
				if !trace {
					untraced = rep
				} else if !sameReport(rep, untraced) || len(rep.Trace) != rep.Moves {
					t.Fatalf("traced run %+v with %d trace points, untraced %+v", rep, len(rep.Trace), untraced)
				}
			}
		})
	}
}

var errStop = errors.New("stop")

// sameReport reports whether two packet reports agree on every field but
// the trace.
func sameReport(a, b PacketReport) bool {
	a.Trace, b.Trace = nil, nil
	return reflect.DeepEqual(a, b)
}

// A Stop that fires at the k-th stage barrier stops the anneal after
// exactly k stages of every live run: a 90-candidate packet on one
// processor, a 30-candidate packet on three, and that packet annealed by 4
// restarts. One that never fires (k = 0) is polled once per stage of the
// whole cooling schedule, which every run completes with the plateau rule
// off. Every poll sees the epoch's simulation time.
func TestBarrierPollsStopAfterKStages(t *testing.T) {
	for _, shape := range []struct{ n, p, restarts int }{{90, 1, 0}, {30, 3, 0}, {30, 3, 4}} {
		for _, k := range []int{1, 2, 7, 0} {
			name := fmt.Sprintf("n=%d p=%d restarts=%d k=%d", shape.n, shape.p, shape.restarts, k)
			pk := randomPacket(t, 5, shape.n, shape.p)
			s := &Scheduler{rng: anneal.NewRand(5), epochTime: 3.5}
			s.opt.Restarts = shape.restarts
			polls := 0
			s.opt.Stop = func(now float64) error {
				if now != 3.5 {
					t.Fatalf("%s: Stop polled with %v, want the epoch time 3.5", name, now)
				}
				if polls++; polls == k {
					return errStop
				}
				return nil
			}
			aopt := s.fillAnnealDefaults(shape.n, shape.p)
			aopt.PlateauStages = 0
			var rep PacketReport
			s.anneal(pk, aopt, &rep)
			want := k
			if k == 0 {
				want = aopt.Cooling.Stages()
			}
			if runs := max(shape.restarts, 1); rep.Stages != want*runs || polls != want {
				t.Fatalf("%s: %d stages after %d polls, want %d after %d", name, rep.Stages, polls, want*runs, want)
			}
		}
	}
}

// Recording the trace leaves the answers alone: a Newton-Euler solve on
// the 3-cube (Figure 1's setting) gives the same schedule and packet
// reports with and without RecordTrace, as a single run and as 4
// cooperative restarts. A single run's trace holds one point per move of the
// packet, marked accepted exactly as often as the report counts.
func TestTraceKeepsAnswers(t *testing.T) {
	g := programs.NewtonEuler()
	topo, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	comm := topology.DefaultCommParams()
	solve := func(opt Options) (float64, []PacketReport) {
		sched, err := NewScheduler(g, topo, comm, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := machsim.Run(machsim.Model{Graph: g, Topo: topo, Comm: comm}, sched, machsim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan, slices.Clone(sched.Packets())
	}
	for _, restarts := range []int{0, 4} {
		opt := DefaultOptions()
		opt.Seed = 42
		opt.Restarts = restarts
		opt.Cooperative = restarts > 1
		makespan, reps := solve(opt)
		opt.RecordTrace = true
		tMakespan, tReps := solve(opt)
		if tMakespan != makespan || len(tReps) != len(reps) {
			t.Fatalf("restarts=%d: makespan %v traced, %v not; %d and %d packets",
				restarts, tMakespan, makespan, len(tReps), len(reps))
		}
		for k, r := range reps {
			tr := tReps[k]
			if !sameReport(tr, r) {
				t.Fatalf("restarts=%d packet %d: %+v traced, %+v not", restarts, k, tr, r)
			}
			if restarts > 0 {
				continue
			}
			accepted := 0
			for _, tp := range tr.Trace {
				if tp.Accepted {
					accepted++
				}
			}
			if len(tr.Trace) != tr.Moves || accepted != tr.Accepted {
				t.Fatalf("packet %d: traced %d of %d moves, %d of %d accepted", k, len(tr.Trace), tr.Moves, accepted, tr.Accepted)
			}
		}
	}
}

// packetProbe runs a Scheduler as the simulator's policy and hands every
// packet it annealed, with the packet's report, to check.
type packetProbe struct {
	*Scheduler
	check func(pk *packet, rep PacketReport)
}

func (p packetProbe) Assign(ep *machsim.Epoch) []machsim.Assignment {
	n := len(p.packets)
	out := p.Scheduler.Assign(ep)
	if len(p.packets) > n {
		p.check(&p.pk, p.packets[n])
	}
	return out
}

// TestPacketsReachLAPBound checks annealStage against every packet's
// exact optimum. A mapping of an n × p packet places min(n, p)
// candidates on distinct slots, and its eq. 6 cost is the sum of their
// contributions, so no mapping costs less than the linear
// assignment optimum over the contribution table (packetLAP); with one
// idle processor that optimum is the minimum of the contribution column.
// On the 12 combinations the end-to-end benchmark serves (the paper's four
// programs on Table 2's three machines, default single run at seed 1991),
// every packet must end with a FinalCost no lower than that optimum and
// equal to the cost of the mapping it leaves, which places min(n, p)
// candidates, both within costScale's tolerance. The share of packets
// that end at the optimum is logged for p = 1 and for p ≥ 2.
func TestPacketsReachLAPBound(t *testing.T) {
	var total, atMin [2]int // [0]: p = 1, [1]: p ≥ 2
	for _, prog := range []string{"NE", "GJ", "FFT", "MM"} {
		g, err := cliutil.BuildProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"hypercube:3", "bus:8", "ring:9"} {
			topo, err := cliutil.ParseTopology(spec)
			if err != nil {
				t.Fatal(err)
			}
			comm := topology.DefaultCommParams()
			opt := DefaultOptions()
			opt.Seed = 1991
			sched, err := NewScheduler(g, topo, comm, opt)
			if err != nil {
				t.Fatal(err)
			}
			var packets, ended [2]int
			probe := packetProbe{sched, func(pk *packet, rep PacketReport) {
				lo := packetLAP(pk)
				tol := 1e-9 * costScale(pk)
				if rep.FinalCost < lo-tol {
					t.Fatalf("%s/%s %d × %d packet at t=%v: FinalCost %v below the LAP optimum %v",
						prog, spec, rep.Candidates, rep.Idle, rep.Time, rep.FinalCost, lo)
				}
				placed, mapped := 0, 0.0
				for j, i := range pk.taskAt {
					if i >= 0 {
						placed++
						mapped += pk.contribution(i, j)
					}
				}
				if placed != pk.nSelect() || math.Abs(rep.FinalCost-mapped) > tol {
					t.Fatalf("%s/%s %d × %d packet at t=%v: FinalCost %v, but the mapping %v places %d candidates at cost %v",
						prog, spec, rep.Candidates, rep.Idle, rep.Time, rep.FinalCost, pk.taskAt, placed, mapped)
				}
				class := min(rep.Idle, 2) - 1
				packets[class]++
				if rep.FinalCost <= lo+tol {
					ended[class]++
				}
			}}
			if _, err := machsim.Run(machsim.Model{Graph: g, Topo: topo, Comm: comm}, probe, machsim.Options{}); err != nil {
				t.Fatal(err)
			}
			if packets[0]+packets[1] == 0 {
				t.Fatalf("%s/%s: no packets", prog, spec)
			}
			t.Logf("%s/%s: %d of %d one-processor and %d of %d larger packets end at the LAP optimum",
				prog, spec, ended[0], packets[0], ended[1], packets[1])
			for c := range total {
				total[c], atMin[c] = total[c]+packets[c], atMin[c]+ended[c]
			}
		}
	}
	for c, shape := range []string{"p = 1", "p ≥ 2"} {
		t.Logf("all, %s: %d of %d packets (%.2f%%) end at the LAP optimum", shape, atMin[c], total[c], 100*float64(atMin[c])/float64(max(total[c], 1)))
	}
}
