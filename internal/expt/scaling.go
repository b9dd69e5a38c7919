package expt

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/list"
	"repro/internal/machsim"
	"repro/internal/programs"
	"repro/internal/topology"
)

// ScalingPoint is one machine size of the processor-scaling study.
type ScalingPoint struct {
	Procs    int
	SA       float64
	HLF      float64
	Messages int // messages of the SA schedule
}

// ScalingConfig parameterizes the processor-scaling study.
type ScalingConfig struct {
	Prog   string
	MaxDim int // hypercube dimensions 0..MaxDim
	Seed   int64
	// Workers fans the independent machine sizes across this many
	// goroutines; <= 0 means one per available CPU. Every point derives
	// its inputs from Seed alone, so results are identical at any worker
	// count.
	Workers int
}

// Scaling sweeps hypercube sizes (1, 2, 4, ... processors) for one
// benchmark program with communication enabled — the classic
// speedup-versus-processors curve, showing where communication overhead
// flattens the scaling. An extension beyond the paper's fixed 8/9
// processor machines. Points are computed concurrently.
func Scaling(progKey string, maxDim int, seed int64) ([]ScalingPoint, error) {
	return ScalingStudy(ScalingConfig{Prog: progKey, MaxDim: maxDim, Seed: seed})
}

// ScalingStudy runs the scaling sweep with explicit worker control.
func ScalingStudy(cfg ScalingConfig) ([]ScalingPoint, error) {
	if cfg.MaxDim < 0 || cfg.MaxDim > 8 {
		return nil, fmt.Errorf("expt: scaling maxDim %d out of range [0,8]", cfg.MaxDim)
	}
	prog, err := programs.ByKey(cfg.Prog)
	if err != nil {
		return nil, err
	}
	comm := topology.DefaultCommParams()
	out := make([]ScalingPoint, cfg.MaxDim+1)
	err = engine.ParallelFor(defaultWorkers(cfg.Workers), cfg.MaxDim+1, func(dim int, _ *engine.Worker) error {
		// Each point gets its own graph: simulations share nothing, so the
		// sweep parallelizes trivially.
		g := prog.Build()
		topo, err := topology.Hypercube(dim)
		if err != nil {
			return err
		}
		model := machsim.Model{Graph: g, Topo: topo, Comm: comm}

		hlf, err := list.NewHLF(g)
		if err != nil {
			return err
		}
		hlfRes, err := machsim.Run(model, hlf, machsim.Options{})
		if err != nil {
			return err
		}

		opt := core.DefaultOptions()
		opt.Seed = cfg.Seed
		sched, err := core.NewScheduler(g, topo, comm, opt)
		if err != nil {
			return err
		}
		saRes, err := machsim.Run(model, sched, machsim.Options{})
		if err != nil {
			return err
		}
		out[dim] = ScalingPoint{
			Procs:    topo.N(),
			SA:       saRes.Speedup,
			HLF:      hlfRes.Speedup,
			Messages: saRes.Messages,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatScaling renders the scaling curve.
func FormatScaling(progKey string, pts []ScalingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scaling study: %s on hypercubes (with communication)\n", progKey)
	fmt.Fprintf(&b, "%6s %9s %9s %9s\n", "procs", "SA", "HLF", "messages")
	for _, p := range pts {
		fmt.Fprintf(&b, "%6d %9.2f %9.2f %9d\n", p.Procs, p.SA, p.HLF, p.Messages)
	}
	return b.String()
}
