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

// TestAcceptReplaySchedulerTrace replays the (Delta, Temp) stream of real
// packet-annealing solves — the paper's four programs on Table 2's three
// machines, the 12 combinations the end-to-end benchmark serves, each a
// single run at seed 1991 recorded with RecordTrace — through Accept,
// with u drawn from a fixed seed. Every decision must equal
// u < AcceptProb, and the logit-bucket table must settle at least 99.9%
// of each combination's moves without evaluating AcceptProb.
func TestAcceptReplaySchedulerTrace(t *testing.T) {
	for _, prog := range []string{"NE", "GJ", "FFT", "MM"} {
		g, err := cliutil.BuildProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"hypercube:3", "bus:8", "ring:9"} {
			t.Run(prog+"/"+spec, func(t *testing.T) {
				topo, err := cliutil.ParseTopology(spec)
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
							t.Fatalf("move %d: Accept(%v, %v, %v) = %v, want %v", tp.Iter, u, tp.Delta, tp.Temp, got, want)
						}
						if decided, _ := anneal.TableDecide(u, tp.Delta, 1/tp.Temp); !decided {
							fallbacks++
						}
						moves++
					}
				}
				if moves < 10000 {
					t.Fatalf("replayed only %d moves; the trace is not a real solve", moves)
				}
				t.Logf("%d moves, %d exact fallbacks (%.3f%%)", moves, fallbacks, 100*float64(fallbacks)/float64(moves))
				if float64(fallbacks) > 0.001*float64(moves) {
					t.Fatalf("table decided only %d of %d moves (< 99.9%%)", moves-fallbacks, moves)
				}
			})
		}
	}
}
