package expt

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machsim"
	"repro/internal/programs"
	"repro/internal/solver"
	"repro/internal/topology"
)

// PolicyRow holds the speedups of every scheduler in the library on one
// benchmark program (hypercube-8, communication enabled): the weakest to
// strongest baselines bracketing the paper's annealing scheduler.
type PolicyRow struct {
	Program string
	Random  float64
	FIFO    float64
	LPT     float64
	MISF    float64
	HLF     float64
	ETF     float64
	SA      float64
}

// PolicyComparison runs the whole policy zoo over the four benchmark
// programs — the "how much does each level of sophistication buy"
// experiment (Ablation F). The programs run concurrently.
func PolicyComparison(seed int64) ([]PolicyRow, error) {
	topo, err := topology.Hypercube(3)
	if err != nil {
		return nil, err
	}
	comm := topology.DefaultCommParams()
	catalog := programs.Catalog()
	rows := make([]PolicyRow, len(catalog))
	err = engine.ParallelFor(defaultWorkers(0), len(catalog), func(k int, _ *engine.Worker) error {
		prog := catalog[k]
		g := prog.Build()
		model := machsim.Model{Graph: g, Topo: topo, Comm: comm}
		row := PolicyRow{Program: prog.Key}

		opt := core.DefaultOptions()
		opt.Seed = seed
		opt.Restarts = 2

		// All policies come from the shared solver registry constructor,
		// the same resolution path the CLI and the scheduling service use.
		run := func(name string) (float64, error) {
			p, err := solver.NewPolicy(name, g, topo, comm, opt)
			if err != nil {
				return 0, err
			}
			res, err := machsim.Run(model, p, machsim.Options{})
			if err != nil {
				return 0, err
			}
			return res.Speedup, nil
		}

		var err error
		if row.Random, err = run("random"); err != nil {
			return err
		}
		if row.FIFO, err = run("fifo"); err != nil {
			return err
		}
		if row.LPT, err = run("lpt"); err != nil {
			return err
		}
		if row.MISF, err = run("misf"); err != nil {
			return err
		}
		if row.HLF, err = run("hlf"); err != nil {
			return err
		}
		if row.ETF, err = run("etf"); err != nil {
			return err
		}
		if row.SA, err = run("sa"); err != nil {
			return err
		}
		rows[k] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatPolicyComparison renders the policy zoo table.
func FormatPolicyComparison(rows []PolicyRow) string {
	var b strings.Builder
	b.WriteString("Ablation F: scheduling policies on hypercube-8 with communication (speedups)\n")
	fmt.Fprintf(&b, "%-6s %8s %8s %8s %8s %8s %8s %8s\n",
		"Prog", "Random", "FIFO", "LPT", "MISF", "HLF", "ETF", "SA")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n",
			r.Program, r.Random, r.FIFO, r.LPT, r.MISF, r.HLF, r.ETF, r.SA)
	}
	return b.String()
}
