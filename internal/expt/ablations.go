package expt

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/anneal"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/list"
	"repro/internal/machsim"
	"repro/internal/programs"
	"repro/internal/stats"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// WeightPoint is one sample of the weight-sweep ablation: speedup as a
// function of the balance/communication weighting (§4.2c: the weights
// "can be tuned to optimize the allocation for the highest speed-up").
type WeightPoint struct {
	Wb, Wc  float64
	Speedup float64
}

// AblationWeights sweeps wb from lo to hi in the given number of steps
// for one program on one architecture (communication enabled). The steps
// are independent simulations and run on the worker pool.
func AblationWeights(progKey string, arch Arch, seed int64, lo, hi float64, steps int) ([]WeightPoint, error) {
	if steps < 2 {
		return nil, fmt.Errorf("expt: weight sweep needs >= 2 steps")
	}
	prog, err := programs.ByKey(progKey)
	if err != nil {
		return nil, err
	}
	comm := topology.DefaultCommParams()
	out := make([]WeightPoint, steps)
	err = engine.ParallelFor(defaultWorkers(0), steps, func(k int, _ *engine.Worker) error {
		wb := lo + (hi-lo)*float64(k)/float64(steps-1)
		opt := core.DefaultOptions()
		opt.Wb = wb
		opt.Wc = 1 - wb
		opt.Seed = seed
		res, _, err := RunSA(prog.Build(), arch.Topo, comm, opt, machsim.Options{})
		if err != nil {
			return err
		}
		out[k] = WeightPoint{Wb: wb, Wc: 1 - wb, Speedup: res.Speedup}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatWeights renders a weight sweep.
func FormatWeights(progKey, arch string, pts []WeightPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A: weight sweep, %s on %s (with communication)\n", progKey, arch)
	b.WriteString("   wb     wc   speedup\n")
	for _, p := range pts {
		fmt.Fprintf(&b, " %4.2f   %4.2f   %6.3f\n", p.Wb, p.Wc, p.Speedup)
	}
	return b.String()
}

// CoolingPoint compares cooling schedules on the same scheduling problem.
type CoolingPoint struct {
	Schedule string
	Speedup  float64
	Moves    int // total annealing moves across all packets
}

// AblationCooling runs one program/architecture under different cooling
// schedules (§2: "the cooling policy influences the convergence speed and
// the quality of the obtained solution"). The schedules run concurrently.
func AblationCooling(progKey string, arch Arch, seed int64) ([]CoolingPoint, error) {
	prog, err := programs.ByKey(progKey)
	if err != nil {
		return nil, err
	}
	comm := topology.DefaultCommParams()
	schedules := []anneal.Cooling{
		anneal.Geometric{T0: 1, Alpha: 0.9, NumStages: 60},
		anneal.Linear{T0: 1, NumStages: 60},
		anneal.Logarithmic{C: 0.5, NumStages: 60},
		anneal.Constant{T: 0, NumStages: 60}, // greedy descent baseline
	}
	out := make([]CoolingPoint, len(schedules))
	err = engine.ParallelFor(defaultWorkers(0), len(schedules), func(k int, _ *engine.Worker) error {
		cs := schedules[k]
		opt := core.DefaultOptions()
		opt.Seed = seed
		opt.Cooling = cs
		res, sched, err := RunSA(prog.Build(), arch.Topo, comm, opt, machsim.Options{})
		if err != nil {
			return err
		}
		moves := 0
		for _, p := range sched.Packets() {
			moves += p.Moves
		}
		out[k] = CoolingPoint{Schedule: cs.Name(), Speedup: res.Speedup, Moves: moves}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatCooling renders a cooling comparison.
func FormatCooling(progKey, arch string, pts []CoolingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation B: cooling schedules, %s on %s (with communication)\n", progKey, arch)
	fmt.Fprintf(&b, "%-28s %9s %9s\n", "schedule", "speedup", "moves")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-28s %9.3f %9d\n", p.Schedule, p.Speedup, p.Moves)
	}
	return b.String()
}

// RandomStudyResult aggregates the SA-vs-HLF comparison over a population
// of random layered taskgraphs, echoing the statistical methodology of
// Adam, Chandy & Dickinson (1974) that the paper cites for HLF's
// near-optimality without communication.
type RandomStudyResult struct {
	Graphs      int
	WithComm    bool
	GainSummary stats.Summary // % gain of SA over HLF
	SAWins      int           // SA strictly faster
	Ties        int
	HLFWins     int
}

// AblationRandomGraphs generates numGraphs random layered DAGs and
// compares SA and HLF speedups on the given architecture. The graphs and
// per-graph SA seeds are drawn sequentially from the study RNG (so the
// population is a pure function of seed), then the independent
// simulations fan out across the worker pool and are aggregated in
// generation order — the same seed gives identical results at any worker
// count.
func AblationRandomGraphs(arch Arch, numGraphs int, withComm bool, seed int64) (*RandomStudyResult, error) {
	return ablationRandomGraphs(arch, numGraphs, withComm, seed, 0)
}

// ablationRandomGraphs is AblationRandomGraphs with explicit worker
// control, so tests can assert worker-count invariance directly.
func ablationRandomGraphs(arch Arch, numGraphs int, withComm bool, seed int64, workers int) (*RandomStudyResult, error) {
	if numGraphs < 1 {
		return nil, fmt.Errorf("expt: need >= 1 graphs")
	}
	rng := rand.New(rand.NewSource(seed))
	comm := topology.DefaultCommParams()
	if !withComm {
		comm = comm.NoComm()
	}
	type cell struct {
		g      *taskgraph.Graph
		saSeed int64
	}
	cells := make([]cell, numGraphs)
	for k := range cells {
		cfg := taskgraph.LayeredConfig{
			Layers:   3 + rng.Intn(6),
			MinWidth: 2,
			MaxWidth: 3 + rng.Intn(10),
			MinLoad:  5,
			MaxLoad:  100,
			MinBits:  40,
			MaxBits:  400,
			EdgeProb: 0.2 + float64(0.4*rng.Float64()),
		}
		g, err := taskgraph.Layered(fmt.Sprintf("rand%d", k), cfg, rng)
		if err != nil {
			return nil, err
		}
		cells[k] = cell{g: g, saSeed: rng.Int63()}
	}

	gains := make([]float64, numGraphs)
	err := engine.ParallelFor(defaultWorkers(workers), numGraphs, func(k int, _ *engine.Worker) error {
		c := cells[k]
		hlf, err := list.NewHLF(c.g)
		if err != nil {
			return err
		}
		model := machsim.Model{Graph: c.g, Topo: arch.Topo, Comm: comm}
		hlfRes, err := machsim.Run(model, hlf, machsim.Options{})
		if err != nil {
			return err
		}
		opt := core.DefaultOptions()
		opt.Seed = c.saSeed
		sched, err := core.NewScheduler(c.g, arch.Topo, comm, opt)
		if err != nil {
			return err
		}
		saRes, err := machsim.Run(model, sched, machsim.Options{})
		if err != nil {
			return err
		}
		gains[k] = Gain(saRes.Speedup, hlfRes.Speedup)
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &RandomStudyResult{Graphs: numGraphs, WithComm: withComm}
	for _, gain := range gains {
		switch {
		case gain > 0.01:
			res.SAWins++
		case gain < -0.01:
			res.HLFWins++
		default:
			res.Ties++
		}
	}
	res.GainSummary = stats.Summarize(gains)
	return res, nil
}

// String renders the random-graph study.
func (r *RandomStudyResult) String() string {
	mode := "w/o comm"
	if r.WithComm {
		mode = "with comm"
	}
	return fmt.Sprintf("Ablation C: %d random layered graphs (%s): SA wins %d, ties %d, HLF wins %d; %% gain %s",
		r.Graphs, mode, r.SAWins, r.Ties, r.HLFWins, r.GainSummary)
}
