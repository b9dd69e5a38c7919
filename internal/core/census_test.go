package core_test

import (
	"flag"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/machsim"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

var census = flag.Bool("census", false, "run TestRestartCensus and print its table")

// censusSolve solves one cell and returns its makespan and the annealing
// moves summed over every packet and restart.
func censusSolve(t *testing.T, g *taskgraph.Graph, topo *topology.Topology, opt core.Options) (float64, int) {
	t.Helper()
	comm := topology.DefaultCommParams()
	sched, err := core.NewScheduler(g, topo, comm, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := machsim.Run(machsim.Model{Graph: g, Topo: topo, Comm: comm}, sched, machsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	moves := 0
	for _, p := range sched.Packets() {
		moves += p.Moves
	}
	return res.Makespan, moves
}

// TestRestartCensus compares cooperative restarts with independent ones
// at the same restart count, the census a restart mode must pass to stay
// (ROADMAP item 7). Over 240 cells (the four Table 2 programs × hypercube:3,
// bus:8 and ring:9 × seeds 1000–1019, default options) it prints, for each
// of r = 2, 4 and 8, how many cells cooperative made better, tied or worse
// by makespan (a tie is within a relative 1e-9, which absorbs a rounding
// difference in an otherwise equal schedule), and the means over cells of
// the makespan ratio and of the annealing-moves ratio, cooperative /
// independent. It takes about half a minute on one core, so it is skipped
// unless asked for:
//
//	go test ./internal/core -run TestRestartCensus -census -v
func TestRestartCensus(t *testing.T) {
	if !*census {
		t.Skip("run with -census to print the restart-mode census")
	}
	type cell struct {
		g    *taskgraph.Graph
		topo *topology.Topology
		seed int64
	}
	var cells []cell
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
			for seed := int64(1000); seed < 1020; seed++ {
				cells = append(cells, cell{g, topo, seed})
			}
		}
	}
	t.Logf("cooperative vs independent restarts over %d cells", len(cells))
	t.Logf("%3s  %6s  %5s  %5s  %14s  %11s", "r", "better", "tied", "worse", "makespan ratio", "moves ratio")
	for _, r := range []int{2, 4, 8} {
		var better, tied, worse int
		var ratios, moves float64
		for _, c := range cells {
			opt := core.DefaultOptions()
			opt.Seed = c.seed
			opt.Restarts = r
			ind, im := censusSolve(t, c.g, c.topo, opt)
			opt.Cooperative = true
			coop, cm := censusSolve(t, c.g, c.topo, opt)
			ratio := coop / ind
			switch {
			case ratio < 1-1e-9:
				better++
			case ratio > 1+1e-9:
				worse++
			default:
				tied++
			}
			ratios += ratio
			moves += float64(cm) / float64(im)
		}
		n := float64(len(cells))
		t.Logf("%3d  %6d  %5d  %5d  %14.4f  %11.2f", r, better, tied, worse, ratios/n, moves/n)
	}
}
