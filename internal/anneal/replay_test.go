package anneal_test

import (
	"math/rand"
	"testing"

	"repro/internal/anneal"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/machsim"
	"repro/internal/topology"
)

// TestAcceptReplaySchedulerTrace replays the (Delta, Temp) stream of a
// real packet-annealing solve — Newton-Euler on the 8-processor
// hypercube, recorded with RecordTrace — through accept, with u drawn
// from a fixed seed. Every decision must equal u < AcceptProb, and the
// multiply-only bracket must settle at least 99.9% of the moves without
// evaluating AcceptProb.
func TestAcceptReplaySchedulerTrace(t *testing.T) {
	g, err := cliutil.BuildProgram("NE")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cliutil.ParseTopology("hypercube:3")
	if err != nil {
		t.Fatal(err)
	}
	comm := topology.DefaultCommParams()
	opt := core.DefaultOptions()
	opt.Seed = 1991
	opt.RecordTrace = true
	sched, err := core.NewScheduler(g, topo, comm, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machsim.Run(machsim.Model{Graph: g, Topo: topo, Comm: comm}, sched, machsim.Options{}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	moves, fallbacks := 0, 0
	for _, pk := range sched.Packets() {
		for _, tp := range pk.Trace {
			u := rng.Float64()
			if got, want := anneal.Accept(u, tp.Delta, tp.Temp, 1/tp.Temp), u < anneal.AcceptProb(tp.Delta, tp.Temp); got != want {
				t.Fatalf("move %d: accept(%v, %v, %v) = %v, want %v", tp.Iter, u, tp.Delta, tp.Temp, got, want)
			}
			if decided, _ := anneal.Bracket(u, tp.Delta, tp.Temp, 1/tp.Temp); !decided {
				fallbacks++
			}
			moves++
		}
	}
	if moves < 10000 {
		t.Fatalf("replayed only %d moves; the trace is not a real solve", moves)
	}
	t.Logf("%d moves, %d exact fallbacks", moves, fallbacks)
	if float64(fallbacks) > 0.001*float64(moves) {
		t.Fatalf("bracket decided only %d of %d moves (< 99.9%%)", moves-fallbacks, moves)
	}
}
