package core

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/anneal"
	"repro/internal/machsim"
	"repro/internal/programs"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// syntheticSingleSlot builds an n-candidate packet on one processor whose
// contribution column, levels and communication costs are drawn from rng
// instead of formed from a graph. Half the contributions come from a small
// pool with ties, +0 and −0, so equal and signed-zero deltas occur. The
// incumbent is a random candidate.
func syntheticSingleSlot(rng *anneal.Rand, n int) *packet {
	pool := []float64{0, math.Copysign(0, -1), -0.5, 0.25, 1, -1}
	pk := &packet{np: 1, wb: 0.5, wc: 0.5, procs: []int{0}, taskAt: []int{-1}}
	pk.tasks = make([]taskgraph.TaskID, n)
	pk.level, pk.commCost, pk.contrib = make([]float64, n), make([]float64, n), make([]float64, n)
	pk.procOf = make([]int, n)
	for i := range pk.tasks {
		pk.tasks[i] = taskgraph.TaskID(i)
		pk.contrib[i] = 2*rng.Float64() - 1
		if rng.Intn(2) == 0 {
			pk.contrib[i] = pool[rng.Intn(len(pool))]
		}
		pk.level[i] = float64(rng.Intn(4)) * rng.Float64()
		pk.commCost[i] = float64(rng.Intn(3)) * 100 * rng.Float64()
		pk.procOf[i] = -1
	}
	pk.dFb, pk.dFc = 1+rng.Float64(), 1+50*rng.Float64()
	pk.bestTaskAt, pk.bestProcOf = make([]int, 1), make([]int, n)
	pk.drawN, pk.drawN1 = bounds(n)
	pk.drawP, pk.drawP1 = bounds(1)
	pk.place(rng.Intn(n), 0)
	return pk
}

// FuzzSingleSlotMatchesStepper holds the fused single-slot kernel equal to
// the Stepper over random one-processor packets (n in 2..128), random
// seeds, a plain or warm-offset cooling schedule, an optional plateau rule
// and small move budgets and caps: the same final mapping, running
// components and FinalCost to the bit, equal Moves, Accepted, Stages and
// PlateauStop, and both RNG streams at the same position.
func FuzzSingleSlotMatchesStepper(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(19), uint16(0), uint8(0))
	f.Add(int64(7), uint8(88), uint16(179), uint16(0), uint8(0x0b))
	f.Add(int64(42), uint8(13), uint16(40), uint16(37), uint8(0x31))
	f.Add(int64(1991), uint8(126), uint16(399), uint16(2500), uint8(0xfe))
	f.Add(int64(-5), uint8(3), uint16(3), uint16(100), uint8(0x0a))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, perStage, maxMoves uint16, flags uint8) {
		n := int(nRaw)%127 + 2
		pk := syntheticSingleSlot(anneal.NewRand(seed), n)
		ref := &packet{}
		ref.cloneFrom(pk)

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
		if !s.singleSlot(pk, aopt) {
			t.Fatal("gate refused a single-slot packet")
		}
		var rep PacketReport
		s.annealSingleSlot(pk, aopt, &rep)

		refRng := anneal.NewRand(seed + 1)
		ropt := aopt
		ropt.RNG = refRng
		res, err := anneal.Minimize(ref, ropt)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Moves != res.Moves || rep.Accepted != res.Accepted || rep.Stages != res.Stages ||
			rep.PlateauStop != res.PlateauStop || math.Float64bits(rep.FinalCost) != math.Float64bits(res.FinalCost) {
			t.Fatalf("n=%d: kernel %+v, Stepper %+v", n, rep, res)
		}
		if !slices.Equal(pk.taskAt, ref.taskAt) || !slices.Equal(pk.procOf, ref.procOf) ||
			math.Float64bits(pk.Fb()) != math.Float64bits(ref.Fb()) || math.Float64bits(pk.Fc()) != math.Float64bits(ref.Fc()) {
			t.Fatalf("n=%d: kernel mapping %v (Fb %v, Fc %v), Stepper %v (Fb %v, Fc %v)",
				n, pk.taskAt, pk.Fb(), pk.Fc(), ref.taskAt, ref.Fb(), ref.Fc())
		}
		if a, b := s.rng.Int63(), refRng.Int63(); a != b {
			t.Fatalf("n=%d: RNG streams diverged", n)
		}
	})
}

var errStop = errors.New("stop")

// sameReport reports whether two packet reports agree on every field but
// the trace.
func sameReport(a, b PacketReport) bool {
	a.Trace, b.Trace = nil, nil
	return reflect.DeepEqual(a, b)
}

// An Interrupt or Bound that fires at the k-th stage barrier stops a
// 90-candidate single-slot packet after exactly k stages, on the kernel
// and on the general path alike, with the same mapping and report. One
// that never fires (k = 0) is polled once per stage of the whole cooling
// schedule, which runs to its end with the plateau rule off.
func TestSingleSlotBarrierPollsStopAfterKStages(t *testing.T) {
	for _, k := range []int{1, 2, 7, 0} {
		for _, bound := range []bool{false, true} {
			var reps [2]PacketReport
			var maps [2][]int
			for path, general := range []bool{false, true} {
				pk := randomPacket(t, 5, 90, 1)
				s := &Scheduler{rng: anneal.NewRand(5), epochTime: 3.5}
				polls := 0
				stop := func() error {
					if polls++; polls == k {
						return errStop
					}
					return nil
				}
				if bound {
					s.opt.Bound = func(now float64) error {
						if now != 3.5 {
							t.Fatalf("Bound polled with %v, want the epoch time 3.5", now)
						}
						return stop()
					}
				} else {
					s.opt.Interrupt = stop
				}
				aopt := s.fillAnnealDefaults(90, 1)
				if k == 0 {
					aopt.PlateauStages = 0
				}
				if general {
					aopt.OnMove = func(anneal.MoveInfo) {}
				}
				if s.singleSlot(pk, aopt) == general {
					t.Fatalf("general=%v: gate chose the wrong path", general)
				}
				s.anneal(pk, aopt, &reps[path])
				want := k
				if k == 0 {
					want = aopt.Cooling.Stages()
				}
				if stages := reps[path].Stages; stages != want || polls != want {
					t.Fatalf("k=%d bound=%v general=%v: %d stages after %d polls", k, bound, general, stages, polls)
				}
				maps[path] = slices.Clone(pk.procOf)
			}
			if !sameReport(reps[0], reps[1]) || !slices.Equal(maps[0], maps[1]) {
				t.Fatalf("k=%d bound=%v: kernel %+v %v, general path %+v %v", k, bound, reps[0], maps[0], reps[1], maps[1])
			}
		}
	}
}

// The kernel takes only single runs of one-processor packets with at
// least two candidates and no per-move observer.
func TestSingleSlotGate(t *testing.T) {
	single := randomPacket(t, 3, 6, 1)
	cases := []struct {
		name   string
		pk     *packet
		opt    func(*Options)
		onMove bool
		want   bool
	}{
		{"single run", single, func(*Options) {}, false, true},
		{"one restart", single, func(o *Options) { o.Restarts = 1 }, false, true},
		{"restarts", single, func(o *Options) { o.Restarts = 2 }, false, false},
		{"trace", single, func(o *Options) { o.RecordTrace = true }, false, false},
		{"observer", single, func(*Options) {}, true, false},
		{"two processors", randomPacket(t, 3, 6, 2), func(*Options) {}, false, false},
		{"one candidate", randomPacket(t, 3, 1, 1), func(*Options) {}, false, false},
	}
	for _, c := range cases {
		s := &Scheduler{opt: DefaultOptions()}
		c.opt(&s.opt)
		aopt := s.fillAnnealDefaults(len(c.pk.tasks), len(c.pk.procs))
		if c.onMove {
			aopt.OnMove = func(anneal.MoveInfo) {}
		}
		if got := s.singleSlot(c.pk, aopt); got != c.want {
			t.Errorf("%s: singleSlot = %v, want %v", c.name, got, c.want)
		}
	}
}

// Observing the moves sends every packet down the general path and leaves
// the answers alone: a Newton-Euler solve on the 3-cube (Figure 1's
// setting) gives the same schedule and packet reports with RecordTrace,
// with a caller's OnMove, and with neither (single-slot packets on the
// kernel). The traced run records every move of its single-slot packets,
// and the observer sees every move of the solve.
func TestSingleSlotGateKeepsAnswers(t *testing.T) {
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
	opt := DefaultOptions()
	opt.Seed = 42
	makespan, reps := solve(opt)

	traced := opt
	traced.RecordTrace = true
	tMakespan, tReps := solve(traced)

	observed := opt
	seen := 0
	observed.Anneal.OnMove = func(anneal.MoveInfo) { seen++ }
	oMakespan, oReps := solve(observed)

	if tMakespan != makespan || oMakespan != makespan || len(tReps) != len(reps) || len(oReps) != len(reps) {
		t.Fatalf("makespans %v (trace) %v (observer) %v (neither); packets %d %d %d",
			tMakespan, oMakespan, makespan, len(tReps), len(oReps), len(reps))
	}
	singles, moves := 0, 0
	for k, r := range reps {
		tr := tReps[k]
		if r.Idle == 1 && r.Candidates >= 2 {
			singles++
			if len(tr.Trace) != tr.Moves {
				t.Fatalf("packet %d: traced %d of %d moves", k, len(tr.Trace), tr.Moves)
			}
		}
		if !sameReport(tr, r) || !sameReport(oReps[k], r) {
			t.Fatalf("packet %d: %+v (trace) %+v (observer) %+v (neither)", k, tr, oReps[k], r)
		}
		moves += r.Moves
	}
	if singles == 0 || seen != moves {
		t.Fatalf("%d single-slot packets; observer saw %d of %d moves", singles, seen, moves)
	}
}
