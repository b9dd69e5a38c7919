// Package solver puts every scheduler in the repository behind one
// Solver interface and a named registry, so the HTTP service, the CLI
// tools and the experiment harness all resolve policies the same way.
//
// Three solvers go beyond the plain machsim policies:
//
//   - "optimal" runs the exact branch-and-bound of internal/optimal
//     (communication-free requests with at most MaxOptimalTasks tasks);
//   - "auto" picks "optimal" when the request is eligible and falls back
//     to "sa" otherwise;
//   - "portfolio" races several solvers concurrently under the request's
//     context deadline and returns the best (lowest-makespan) result.
//
// Solvers are stateless descriptors: every Solve call builds fresh policy
// state, so one Solver value may serve concurrent requests. Determinism
// is preserved — for a fixed Request (including its seed) the result is
// identical regardless of concurrency.
package solver

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/list"
	"repro/internal/machsim"
	"repro/internal/obs"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Request bundles one scheduling problem instance: the program graph, the
// machine, and the policy knobs.
type Request struct {
	Graph *taskgraph.Graph
	Topo  *topology.Topology
	Comm  topology.CommParams
	// SA carries the annealing options (seed, weights, restarts). The seed
	// also drives the "random" policy.
	SA core.Options
	// Sim configures the execution simulator (e.g. RecordGantt). Solve
	// polls the context's cancellation before the Stop hook, and for "sa"
	// the annealer's stage barrier polls that same hook.
	Sim machsim.Options
	// Arena, when non-nil, is a caller-owned simulator arena the solve
	// reuses instead of drawing one from the shared pool: the engine's
	// worker goroutines each own one, so back-to-back solves on a worker
	// reuse warm buffers. The arena is rebound to this request's model, so
	// it carries no state between problems and never changes the result.
	// It must not be shared by concurrent solves; the portfolio therefore
	// strips it from the member requests it races. Results produced
	// through an arena are detached copies, exactly like the pooled path.
	Arena *machsim.Simulator
	// Sched, when non-nil, is a caller-owned SA scheduler arena
	// (core.NewSchedulerArena) that the "sa" policy Resets and reuses
	// instead of constructing a fresh core.Scheduler per solve — the
	// cold-path analogue of Arena. Reset rebinds it completely, so a
	// pooled scheduler never changes the result. Like Arena it must not
	// be shared by concurrent solves; the portfolio strips it from the
	// member requests it races.
	Sched *core.Scheduler
	// Portfolio tunes the "portfolio" solver for this request; the zero
	// value keeps the defaults (no per-member deadline, incumbent-bound
	// pruning enabled).
	Portfolio PortfolioOptions
}

// Validate reports whether the request can be solved at all.
func (r Request) Validate() error {
	if r.Graph == nil {
		return fmt.Errorf("solver: nil taskgraph")
	}
	if r.Topo == nil {
		return fmt.Errorf("solver: nil topology")
	}
	return machsim.Model{Graph: r.Graph, Topo: r.Topo, Comm: r.Comm}.Validate()
}

// Solver produces a complete simulated (or exact) schedule for a request.
type Solver interface {
	// Name is the registry key ("sa", "etf", "portfolio", ...).
	Name() string
	// Description is a one-line human-readable summary.
	Description() string
	// Solve computes the schedule. Implementations honor ctx cancellation
	// at epoch (or search-node) granularity and return ctx's error wrapped
	// when interrupted.
	Solve(ctx context.Context, req Request) (*machsim.Result, error)
}

// Info describes one registered solver.
type Info struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// NewPolicy builds a machsim policy by name — the registry's policy-backed
// solvers, the CLI and the experiment harness share this constructor.
func NewPolicy(name string, g *taskgraph.Graph, topo *topology.Topology,
	comm topology.CommParams, saOpt core.Options) (machsim.Policy, error) {

	switch strings.ToLower(name) {
	case "sa", "anneal", "annealing":
		return core.NewScheduler(g, topo, comm, saOpt)
	case "hlf":
		return list.NewHLF(g)
	case "hlfcomm", "hlf+comm":
		return list.NewCommAwareHLF(g, topo, comm)
	case "etf":
		return list.NewETF(g, topo, comm)
	case "lpt":
		return list.NewLPT(g), nil
	case "misf":
		return list.NewMISF(g)
	case "fifo":
		return list.NewFIFO(), nil
	case "random":
		return list.NewRandom(saOpt.Seed), nil
	default:
		return nil, fmt.Errorf("unknown policy %q (want sa, hlf, hlfcomm, etf, lpt, misf, fifo or random)", name)
	}
}

// policySolver adapts a NewPolicy-constructible policy to the Solver
// interface.
type policySolver struct {
	name string
	desc string
}

func (p policySolver) Name() string        { return p.name }
func (p policySolver) Description() string { return p.desc }

func (p policySolver) Solve(ctx context.Context, req Request) (*machsim.Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	// One hook stops a discarded run at both of its polls: the simulator's
	// event batch and, for "sa", the anneal's stage barrier, so an SA run
	// stops mid-packet instead of at the next event batch.
	req.Sim.Stop = stopHook(ctx, req.Sim.Stop)
	req.SA.Stop = req.Sim.Stop
	var pol machsim.Policy
	if p.name == "sa" && req.Sched != nil {
		// The caller-owned scheduler arena replaces the per-solve
		// core.NewScheduler construction; Reset rebinds it completely.
		if err := req.Sched.Reset(req.Graph, req.Topo, req.Comm, req.SA); err != nil {
			return nil, err
		}
		pol = req.Sched
	} else {
		var err error
		pol, err = NewPolicy(p.name, req.Graph, req.Topo, req.Comm, req.SA)
		if err != nil {
			return nil, err
		}
	}
	res, err := simulate(ctx, pol, req)
	if err == nil {
		if sc, ok := pol.(*core.Scheduler); ok {
			// res is a detached clone, so folding scheduler-side counters
			// into it never races with arena reuse.
			res.RestartsAbandoned = sc.RestartsAbandoned()
			res.WarmEpochsSaved = sc.WarmSavedStages()
			for _, pr := range sc.Packets() {
				res.AnnealMoves += pr.Moves
				res.AnnealAccepted += pr.Accepted
			}
			if tr := obs.FromContext(ctx); tr != nil {
				annotateAnneal(tr, sc, res)
			}
		}
	}
	return res, err
}

// annotateAnneal folds the SA scheduler's per-packet reports into solve
// annotations: how many annealing packets ran and how much total cost
// they burned down — the trace-level view of the paper's §6a packet
// statistics. The move and acceptance totals come from res, where the
// caller already summed them.
func annotateAnneal(tr *obs.Trace, sc *core.Scheduler, res *machsim.Result) {
	var stages int
	var initial, final float64
	packets := sc.Packets()
	for _, p := range packets {
		stages += p.Stages
		initial += p.InitialCost
		final += p.FinalCost
	}
	tr.Annotate("sa_packets", strconv.Itoa(len(packets)))
	tr.Annotate("anneal_stages", strconv.Itoa(stages))
	tr.Annotate("anneal_moves", strconv.Itoa(res.AnnealMoves))
	tr.Annotate("anneal_accepted", strconv.Itoa(res.AnnealAccepted))
	if n := sc.RestartsAbandoned(); n > 0 {
		tr.Annotate("restarts_abandoned", strconv.Itoa(n))
	}
	if n := sc.WarmSavedStages(); n > 0 {
		tr.Annotate("warm_epochs_saved", strconv.Itoa(n))
	}
	tr.Annotate("initial_cost", strconv.FormatFloat(initial, 'g', -1, 64))
	tr.Annotate("final_cost", strconv.FormatFloat(final, 'g', -1, 64))
}

// stopHook is a solve's one stop hook: the context's cancellation, then
// next (the portfolio's incumbent bound), if any. A context that can never
// be cancelled adds nothing. Only discarded runs — a cancelled request, a
// pruned portfolio member — ever see it fire. The hook runs at every
// stage barrier and simulator poll, so it checks the Done channel with a
// receive that does not block, and asks ctx.Err, which locks the context,
// only once the channel has closed.
func stopHook(ctx context.Context, next func(now float64) error) func(now float64) error {
	done := ctx.Done()
	if done == nil {
		return next
	}
	return func(now float64) error {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if next == nil {
			return nil
		}
		return next(now)
	}
}

// simulate runs the machine simulator on the request's arena when one is
// provided and the shared pool otherwise.
func simulate(ctx context.Context, pol machsim.Policy, req Request) (*machsim.Result, error) {
	model := machsim.Model{Graph: req.Graph, Topo: req.Topo, Comm: req.Comm}
	var res *machsim.Result
	if req.Arena != nil {
		if err := req.Arena.Bind(model, req.Sim); err != nil {
			return nil, err
		}
		r, err := req.Arena.Run(pol)
		if err != nil {
			return nil, err
		}
		res = r.Clone()
	} else {
		var err error
		res, err = machsim.Run(model, pol, req.Sim)
		if err != nil {
			return nil, err
		}
	}
	if tr := obs.FromContext(ctx); tr != nil {
		tr.Annotate("sim_epochs", strconv.Itoa(len(res.Epochs)))
		tr.Annotate("sim_forced", strconv.Itoa(res.Forced))
		tr.Annotate("makespan", strconv.FormatFloat(res.Makespan, 'g', -1, 64))
	}
	return res, nil
}

// registryMu guards registry and aliases: the built-in set is fixed, but
// Register may extend it at runtime (e.g. test instrumentation solvers).
var registryMu sync.RWMutex

// registry holds the solvers in a stable listing order.
var registry = []Solver{
	policySolver{"sa", "staged simulated annealing with restarts (the paper's scheduler); reports SA(r=N)"},
	policySolver{"hlf", "Highest Level First list scheduler (the paper's baseline)"},
	policySolver{"hlfcomm", "HLF with greedy communication-aware placement"},
	policySolver{"etf", "Earliest Task First, the strongest deterministic communication-aware list scheduler"},
	policySolver{"lpt", "Longest Processing Time list scheduler"},
	policySolver{"misf", "Most Immediate Successors First list scheduler"},
	policySolver{"fifo", "task-ID-order list scheduler (Graham's given list)"},
	policySolver{"random", "random list scheduler, the weakest baseline"},
	optimalSolver{},
	autoSolver{},
	portfolioSolver{},
}

// aliases maps alternate spellings onto registry names.
var aliases = map[string]string{
	"anneal":    "sa",
	"annealing": "sa",
	"hlf+comm":  "hlfcomm",
	"exact":     "optimal",
	"race":      "portfolio",
}

// Register adds a solver to the registry. Its name must be lower-case and
// not collide with a registered solver or alias. Built-in solvers cover
// normal operation; Register exists for callers that plug in bespoke or
// instrumented solvers (e.g. gated test solvers proving stream ordering).
func Register(s Solver) error {
	name := s.Name()
	if name == "" || name != strings.ToLower(name) {
		return fmt.Errorf("solver: invalid solver name %q (want non-empty lower-case)", name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, ok := aliases[name]; ok {
		return fmt.Errorf("solver: name %q collides with an alias", name)
	}
	for _, have := range registry {
		if have.Name() == name {
			return fmt.Errorf("solver: solver %q already registered", name)
		}
	}
	registry = append(registry, s)
	return nil
}

// Get resolves a solver by (case-insensitive) name or alias.
func Get(name string) (Solver, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	registryMu.RLock()
	defer registryMu.RUnlock()
	if canon, ok := aliases[key]; ok {
		key = canon
	}
	for _, s := range registry {
		if s.Name() == key {
			return s, nil
		}
	}
	return nil, fmt.Errorf("solver: unknown solver %q (known: %s)", name, strings.Join(namesLocked(), ", "))
}

// Solve resolves name and solves the request with it.
func Solve(ctx context.Context, name string, req Request) (*machsim.Result, error) {
	s, err := Get(name)
	if err != nil {
		return nil, err
	}
	return s.Solve(ctx, req)
}

// Names returns the registered solver names in listing order.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name()
	}
	return out
}

// List returns name + description for every registered solver, in listing
// order, with aliases appended alphabetically at the end.
func List() []Info {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Info, 0, len(registry)+len(aliases))
	for _, s := range registry {
		out = append(out, Info{Name: s.Name(), Description: s.Description()})
	}
	keys := make([]string, 0, len(aliases))
	for a := range aliases {
		keys = append(keys, a)
	}
	sort.Strings(keys)
	for _, a := range keys {
		out = append(out, Info{Name: a, Description: "alias for " + aliases[a]})
	}
	return out
}
