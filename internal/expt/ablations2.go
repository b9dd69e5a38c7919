package expt

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/list"
	"repro/internal/machsim"
	"repro/internal/optimal"
	"repro/internal/programs"
	"repro/internal/stats"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// StaticRow compares a static balanced mapping (the balancing problem of
// Hwang & Xu, which the paper extends) against staged scheduling on a
// *directed* taskgraph. This quantifies the paper's §4.1 motivation: "in
// programs characterized by a directed taskgraph, the communication and
// the load patterns vary largely during the execution time, invalidating
// the assumptions of the balancing problem".
type StaticRow struct {
	Program string
	Static  float64 // speedup under the static balanced mapping
	HLF     float64
	SA      float64 // staged annealing scheduler (the paper's algorithm)
}

// AblationStatic runs the four benchmark programs on the hypercube with
// communication, under a static balancing-problem mapping, HLF and the
// staged SA scheduler. The programs run concurrently.
func AblationStatic(seed int64) ([]StaticRow, error) {
	topo, err := topology.Hypercube(3)
	if err != nil {
		return nil, err
	}
	comm := topology.DefaultCommParams()
	catalog := programs.Catalog()
	rows := make([]StaticRow, len(catalog))
	err = engine.ParallelFor(defaultWorkers(0), len(catalog), func(k int, _ *engine.Worker) error {
		prog := catalog[k]
		g := prog.Build()
		model := machsim.Model{Graph: g, Topo: topo, Comm: comm}

		mapping, err := assign.SolveBalancing(g, topo, assign.BalancingOptions{Seed: seed})
		if err != nil {
			return err
		}
		staticPol, err := assign.NewStaticPolicy(g, mapping.ProcOf)
		if err != nil {
			return err
		}
		staticRes, err := machsim.Run(model, staticPol, machsim.Options{})
		if err != nil {
			return err
		}

		hlf, err := list.NewHLF(g)
		if err != nil {
			return err
		}
		hlfRes, err := machsim.Run(model, hlf, machsim.Options{})
		if err != nil {
			return err
		}

		opt := core.DefaultOptions()
		opt.Seed = seed
		sched, err := core.NewScheduler(g, topo, comm, opt)
		if err != nil {
			return err
		}
		saRes, err := machsim.Run(model, sched, machsim.Options{})
		if err != nil {
			return err
		}

		rows[k] = StaticRow{
			Program: prog.Key,
			Static:  staticRes.Speedup,
			HLF:     hlfRes.Speedup,
			SA:      saRes.Speedup,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatStatic renders the static-vs-staged comparison.
func FormatStatic(rows []StaticRow) string {
	var b strings.Builder
	b.WriteString("Ablation D: static balanced mapping vs staged scheduling (hypercube-8, with comm)\n")
	fmt.Fprintf(&b, "%-6s %12s %12s %12s\n", "Prog", "static", "HLF", "SA (staged)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %12.2f %12.2f %12.2f\n", r.Program, r.Static, r.HLF, r.SA)
	}
	return b.String()
}

// OptimalStudy aggregates heuristics-vs-optimum results on small random
// instances (free communication), echoing the statistical study of Adam,
// Chandy & Dickinson (1974) the paper cites: "HLF generated schedules
// remain within 5% of the optimal solution in all but one of 900 random
// generated taskgraphs".
type OptimalStudy struct {
	Graphs        int
	HLFRatio      stats.Summary // HLF makespan / optimal makespan
	SARatio       stats.Summary // SA makespan / optimal makespan
	HLFWithin5Pct int
	SAWithin5Pct  int
	SAOptimal     int // SA exactly optimal
	HLFOptimal    int
}

// AblationOptimal generates small random DAGs, solves them exactly, and
// measures how close HLF and SA come to the optimum (communication
// disabled, as in the cited study). The instances are generated
// sequentially from the study seed, then solved concurrently and
// aggregated in generation order, so the same seed gives identical
// results at any worker count.
func AblationOptimal(numGraphs, procs int, seed int64) (*OptimalStudy, error) {
	if numGraphs < 1 || procs < 1 {
		return nil, fmt.Errorf("expt: bad optimal-study parameters")
	}
	topo, err := topology.Complete(procs)
	if err != nil {
		return nil, err
	}
	comm := topology.DefaultCommParams().NoComm()
	rng := rand.New(rand.NewSource(seed))
	type cell struct {
		g      *taskgraph.Graph
		saSeed int64
	}
	cells := make([]cell, numGraphs)
	for k := range cells {
		n := 6 + rng.Intn(4) // 6..9 tasks keep the exact solver fast
		g, err := taskgraph.GnpDAG(fmt.Sprintf("opt%d", k), n, 0.15+float64(0.25*rng.Float64()), 1, 20, 0, 0, rng)
		if err != nil {
			return nil, err
		}
		cells[k] = cell{g: g, saSeed: rng.Int63()}
	}

	hlfRatios := make([]float64, numGraphs)
	saRatios := make([]float64, numGraphs)
	err = engine.ParallelFor(defaultWorkers(0), numGraphs, func(k int, _ *engine.Worker) error {
		c := cells[k]
		exact, err := optimal.Makespan(c.g, procs, optimal.Options{})
		if err != nil {
			return err
		}
		model := machsim.Model{Graph: c.g, Topo: topo, Comm: comm}

		hlf, err := list.NewHLF(c.g)
		if err != nil {
			return err
		}
		hlfRes, err := machsim.Run(model, hlf, machsim.Options{})
		if err != nil {
			return err
		}

		opt := core.DefaultOptions()
		opt.Seed = c.saSeed
		sched, err := core.NewScheduler(c.g, topo, comm, opt)
		if err != nil {
			return err
		}
		saRes, err := machsim.Run(model, sched, machsim.Options{})
		if err != nil {
			return err
		}

		hlfRatios[k] = hlfRes.Makespan / exact.Makespan
		saRatios[k] = saRes.Makespan / exact.Makespan
		return nil
	})
	if err != nil {
		return nil, err
	}

	study := &OptimalStudy{Graphs: numGraphs}
	for k := 0; k < numGraphs; k++ {
		hr, sr := hlfRatios[k], saRatios[k]
		if hr <= 1.05+1e-9 {
			study.HLFWithin5Pct++
		}
		if sr <= 1.05+1e-9 {
			study.SAWithin5Pct++
		}
		if hr <= 1+1e-9 {
			study.HLFOptimal++
		}
		if sr <= 1+1e-9 {
			study.SAOptimal++
		}
	}
	study.HLFRatio = stats.Summarize(hlfRatios)
	study.SARatio = stats.Summarize(saRatios)
	return study, nil
}

// String renders the optimal study.
func (s *OptimalStudy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation E: heuristics vs exact optimum on %d small random DAGs (free comm)\n", s.Graphs)
	fmt.Fprintf(&b, "  HLF/optimal: %s; within 5%%: %d/%d; exactly optimal: %d/%d\n",
		s.HLFRatio, s.HLFWithin5Pct, s.Graphs, s.HLFOptimal, s.Graphs)
	fmt.Fprintf(&b, "  SA /optimal: %s; within 5%%: %d/%d; exactly optimal: %d/%d\n",
		s.SARatio, s.SAWithin5Pct, s.Graphs, s.SAOptimal, s.Graphs)
	return b.String()
}
