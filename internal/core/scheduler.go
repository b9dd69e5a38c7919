package core

import (
	"fmt"
	"math"

	"repro/internal/anneal"
	"repro/internal/machsim"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Options configures the simulated-annealing scheduler.
type Options struct {
	// Wb and Wc weight the load-balancing and communication terms of the
	// cost function (eq. 6). The paper requires Wb + Wc = 1 and uses
	// Wb = Wc = 0.5 for its Figure 1.
	Wb, Wc float64
	// Anneal configures the annealing engine per packet. Zero-valued
	// fields are filled with packet-size-dependent defaults.
	Anneal anneal.Options
	// Seed drives all stochastic choices; equal seeds give equal schedules.
	Seed int64
	// GreedyInit starts each packet from the HLF mapping instead of a
	// random one.
	GreedyInit bool
	// RecordTrace keeps the per-move cost trajectories (Fb, Fc, Ftot) of
	// every packet, as plotted in the paper's Figure 1. With restarts,
	// the trace of the winning (lowest-cost) restart is kept.
	RecordTrace bool
	// Restarts anneals each packet this many times from independent
	// initial mappings and keeps the lowest-cost one. 0 or 1 means a
	// single run. Restarts anneal cloned packets with deterministic
	// per-restart seeds, one temperature stage each per barrier on the
	// calling goroutine, so a solve with r restarts costs about r single
	// solves — and equal seeds still give equal schedules.
	Restarts int
	// Cooperative makes restarts share one incumbent best cost: at every
	// stage barrier the restart with the lowest best cost is the
	// incumbent, and a restart whose best has trailed it for AbandonAfter
	// consecutive barriers is abandoned early — less total work for an
	// equal-or-better winner (the incumbent holder is never abandoned,
	// so the adopted mapping is always the global best seen). All
	// cross-restart decisions happen at seed-deterministic barriers in
	// restart order, never by wall clock, so cooperative schedules are
	// byte-identical at any GOMAXPROCS or worker count.
	Cooperative bool
	// Tempering layers parallel tempering onto the restarts' barriers:
	// restart r anneals on the base cooling schedule scaled by
	// temperRatio^r (a temperature ladder), and after every stage
	// adjacent live replicas attempt a Metropolis state exchange drawn
	// from a dedicated seed-derived RNG. Exchanges move good states
	// toward the cold end of the ladder while hot replicas keep
	// exploring. Early abandonment is disabled so every rung stays live.
	// Deterministic under the same argument as Cooperative.
	Tempering bool
	// AbandonAfter is the cooperative patience in stage barriers. 0
	// means the default (5); negative disables abandonment (restarts
	// still share the barrier schedule and incumbent).
	AbandonAfter int
	// Interrupt, when non-nil, is polled at every stage barrier, in every
	// restart mode; a non-nil error stops the anneal early (the best mapping
	// so far is still adopted). The solver layer chains the request
	// context into it, so a cancelled request — a portfolio loser, a
	// disconnected client — stops burning CPU mid-anneal instead of at
	// the next simulator event. Interrupt only fires on runs that are
	// being discarded, so determinism of served results is unaffected.
	Interrupt func() error
	// Bound, when non-nil, is polled at every stage barrier with the
	// current assignment epoch's simulation time — a monotone
	// lower bound on this run's final makespan. A non-nil error stops the
	// anneal early, exactly like Interrupt. The solver portfolio threads
	// machsim.Options.Bound through here, so a racing SA member that can
	// no longer beat the incumbent best stops mid-anneal instead of
	// finishing the packet and waiting for the simulator's next event-
	// batch poll to kill it. Like Interrupt, it only ever fires on runs
	// whose results are being discarded.
	Bound func(now float64) error
	// Warm seeds every packet from a previously solved assignment and
	// starts the cooling schedule late (scaled by the seed's structural
	// distance): the cache-as-a-prior mode. Candidates whose seed
	// processor is idle in the packet keep their placement; the rest fill
	// by HLF order. Warm runs stay byte-deterministic for a fixed (Seed,
	// Warm) pair, and the annealer's keep-best snapshot guarantees each
	// packet's final cost never exceeds its seeded initial cost.
	Warm *WarmStart
}

// WarmStart carries a warm-start seed into the scheduler.
type WarmStart struct {
	// Assignment[t] is the seed processor for task t, or −1 for tasks the
	// seed does not place (taskgraph.ProjectAssignment's output). It must
	// cover every task of the graph (len == NumTasks) to take effect.
	Assignment []int
	// Distance is the structural distance between the seed's graph and
	// this one, in [0, 1]. Near 0 skips most of the cooling schedule
	// (small perturbations need only the cold tail of the anneal); near 1
	// degrades to an almost-cold run.
	Distance float64
}

// temperRatio is the geometric spacing of the parallel-tempering
// temperature ladder: replica r runs temperRatio^r hotter than the base
// schedule.
const temperRatio = 1.5

// defaultAbandonAfter is the cooperative patience when AbandonAfter is 0.
const defaultAbandonAfter = 5

// DefaultOptions returns the configuration used for the Table 2
// reproduction: equal weights and the default annealing engine with a
// packet-size-adaptive move budget (MovesPerStage is left zero so
// fillAnnealDefaults scales it per packet).
func DefaultOptions() Options {
	opt := Options{Wb: 0.5, Wc: 0.5, Anneal: anneal.DefaultOptions()}
	opt.Anneal.MovesPerStage = 0
	return opt
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.Wb < 0 || o.Wc < 0 {
		return fmt.Errorf("core: negative weights wb=%g wc=%g", o.Wb, o.Wc)
	}
	if s := o.Wb + o.Wc; s < 0.999 || s > 1.001 {
		return fmt.Errorf("core: weights must satisfy wb+wc=1, got %g", s)
	}
	return nil
}

// TracePoint is one annealing iteration of one packet: the raw level cost
// Fb (eq. 3), the raw communication cost Fc (eq. 5) and the weighted
// normalized total Ftot (eq. 6). These are the three trajectories of the
// paper's Figure 1. Delta is the proposed move's cost change, accepted or
// not, so a trace also replays the (Delta, Temp) stream the acceptance
// rule saw.
type TracePoint struct {
	Iter  int
	Temp  float64
	Delta float64
	Fb    float64
	Fc    float64
	Ftot  float64
}

// PacketReport summarizes the annealing of one packet.
type PacketReport struct {
	Time        float64 // epoch time
	Candidates  int     // ready tasks competing
	Idle        int     // free processors
	Assigned    int
	Moves       int // proposed moves, summed over restarts
	Accepted    int // accepted moves, summed over restarts
	Stages      int // temperature stages, summed over restarts
	InitialCost float64
	FinalCost   float64
	PlateauStop bool
	// Restart is the index of the winning restart (0 for single runs).
	Restart int
	// Abandoned counts restarts of this packet stopped early by the
	// cooperative incumbent rule; Exchanges counts accepted
	// parallel-tempering replica swaps. Both are zero outside
	// cooperative and tempering restarts.
	Abandoned int
	Exchanges int
	Trace     []TracePoint // winning restart's trace; nil unless Options.RecordTrace
}

// Scheduler is the paper's staged simulated-annealing scheduler. It
// implements machsim.Policy. A Scheduler carries per-run state (its RNG,
// packet reports and reusable packet buffers); use a fresh Scheduler —
// or Reset one — per simulation.
type Scheduler struct {
	g      *taskgraph.Graph
	topo   *topology.Topology
	comm   topology.CommParams
	levels []float64
	opt    Options
	rng    *anneal.Rand

	// Scratch for the reusable level computation (reverse Kahn pass).
	lvlDeg   []int32
	lvlStack []int32

	// pk is the arena-backed packet reused across epochs; runs holds the
	// per-run workspaces (grown on demand, reused across epochs).
	pk   packet
	runs []restartRun

	// Restart-mode state: the replica-exchange RNG (re-seeded from the
	// scheduler stream per packet) and run-level counters surfaced
	// through RestartsAbandoned/Exchanges.
	exchRng   *anneal.Rand
	abandoned int
	exchanges int

	// Warm-start state: warmOK is whether Options.Warm is usable for this
	// binding (covers every task), warmSaved totals the cooling stages
	// skipped across packets, and epochTime is the current assignment
	// epoch's simulation clock for the Bound barrier poll.
	warmOK    bool
	warmSaved int
	epochTime float64

	packets []PacketReport
}

// restartRun is the workspace of one annealing run of a packet.
type restartRun struct {
	// cur is the packet the run anneals: the scheduler's own for a single
	// run, else the run's clone pk.
	cur  *packet
	pk   packet
	rng  *anneal.Rand
	step anneal.Stepper
	// rung is the run's tempering schedule. The Stepper holds &rung, so
	// the ladder is not boxed into an interface per packet.
	rung  scaledCooling
	res   anneal.Result
	err   error
	trace []TracePoint

	// Barrier bookkeeping: whether the run has ended, and for how many
	// consecutive barriers its best has trailed the incumbent.
	stopped bool
	lag     int
}

// NewScheduler builds an SA scheduling policy for one (graph, machine)
// pair.
func NewScheduler(g *taskgraph.Graph, topo *topology.Topology, comm topology.CommParams, opt Options) (*Scheduler, error) {
	s := NewSchedulerArena()
	if err := s.Reset(g, topo, comm, opt); err != nil {
		return nil, err
	}
	return s, nil
}

// NewSchedulerArena returns an empty, unbound scheduler arena. Reset binds
// it to a problem before use. Worker pools hold one arena per worker and
// Reset it per solve, so back-to-back SA solves reuse the packet buffers,
// restart workspaces and report slice instead of rebuilding them — the
// scheduler-side analogue of machsim.NewArena.
func NewSchedulerArena() *Scheduler { return &Scheduler{} }

// Reset rebinds the scheduler to a (new) problem, growing its buffers as
// needed and discarding all state from a previous binding. A Reset
// scheduler is observably identical to a freshly constructed one: for a
// fixed (graph, machine, options) it produces the same schedule whether
// the arena is cold or warm.
func (s *Scheduler) Reset(g *taskgraph.Graph, topo *topology.Topology, comm topology.CommParams, opt Options) error {
	if topo == nil {
		return fmt.Errorf("core: nil topology")
	}
	if g == nil {
		return fmt.Errorf("core: nil taskgraph")
	}
	if err := opt.Validate(); err != nil {
		return err
	}
	s.g = g
	s.topo = topo
	s.comm = comm
	s.opt = opt
	if err := s.computeLevels(); err != nil {
		return err
	}
	if s.rng == nil {
		s.rng = anneal.NewRand(opt.Seed)
	} else {
		// Re-seeding the existing source restarts the identical stream a
		// fresh anneal.NewRand(seed) would produce.
		s.rng.Seed(opt.Seed)
	}
	// Warm the packet arena to the whole-problem bounds (every task ready,
	// every processor idle) and pre-size the report slice, so per-epoch
	// work inside a run does not grow buffers.
	s.pk.presize(g.NumTasks(), topo.N())
	if cap(s.packets) < g.NumTasks() {
		s.packets = make([]PacketReport, 0, g.NumTasks())
	} else {
		s.packets = s.packets[:0]
	}
	s.abandoned = 0
	s.exchanges = 0
	s.warmOK = opt.Warm != nil && len(opt.Warm.Assignment) == g.NumTasks()
	s.warmSaved = 0
	s.epochTime = 0
	return nil
}

// computeLevels fills s.levels with each task's level using reusable
// scratch buffers — a reverse Kahn pass from the leaves, matching
// Graph.Levels exactly (levels are well-defined independent of visit
// order) without its per-call allocations.
func (s *Scheduler) computeLevels() error {
	g := s.g
	nt := g.NumTasks()
	s.levels = grow(s.levels, nt)
	s.lvlDeg = grow(s.lvlDeg, nt)
	stack := s.lvlStack[:0]
	for i := 0; i < nt; i++ {
		d := g.OutDegree(taskgraph.TaskID(i))
		s.lvlDeg[i] = int32(d)
		s.levels[i] = 0
		if d == 0 {
			stack = append(stack, int32(i))
		}
	}
	processed := 0
	for len(stack) > 0 {
		i := taskgraph.TaskID(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		processed++
		best := 0.0
		for _, h := range g.Successors(i) {
			if s.levels[h.To] > best {
				best = s.levels[h.To]
			}
		}
		s.levels[i] = g.Load(i) + best
		for _, h := range g.Predecessors(i) {
			s.lvlDeg[h.To]--
			if s.lvlDeg[h.To] == 0 {
				stack = append(stack, int32(h.To))
			}
		}
	}
	s.lvlStack = stack[:0]
	if processed != nt {
		return fmt.Errorf("core: taskgraph %q: cycle detected (%d of %d tasks ordered)", g.Name(), processed, nt)
	}
	return nil
}

// Name implements machsim.Policy. With restarts the name carries the
// restart count ("SA(r=4)") so portfolio traces and solver listings are
// unambiguous about the configuration that produced a result.
func (s *Scheduler) Name() string {
	if s.opt.Restarts > 1 {
		switch {
		case s.opt.Tempering:
			return fmt.Sprintf("SA(pt r=%d)", s.opt.Restarts)
		case s.opt.Cooperative:
			return fmt.Sprintf("SA(coop r=%d)", s.opt.Restarts)
		}
		return fmt.Sprintf("SA(r=%d)", s.opt.Restarts)
	}
	return "SA"
}

// Packets returns the per-packet reports accumulated so far.
func (s *Scheduler) Packets() []PacketReport { return s.packets }

// RestartsAbandoned returns the total restarts stopped early by the
// cooperative incumbent rule across all packets since the last Reset.
func (s *Scheduler) RestartsAbandoned() int { return s.abandoned }

// Exchanges returns the total accepted parallel-tempering replica swaps
// across all packets since the last Reset.
func (s *Scheduler) Exchanges() int { return s.exchanges }

// WarmSavedStages returns the total cooling stages skipped by the
// warm-start temperature offset across all packets since the last Reset —
// the annealing epochs the warm seed saved relative to a cold run of the
// same schedule. Zero outside warm mode.
func (s *Scheduler) WarmSavedStages() int { return s.warmSaved }

// Assign implements machsim.Policy: form the annealing packet, anneal the
// mapping (possibly several restarts), return the selected placements.
func (s *Scheduler) Assign(ep *machsim.Epoch) []machsim.Assignment {
	if len(ep.Ready) == 0 || len(ep.Idle) == 0 {
		return nil
	}
	pk := &s.pk
	pk.reset(ep.Ready, ep.Idle, ep.Sim.ProcOf, s.levels, s.topo, s.comm, s.g, s.opt.Wb, s.opt.Wc)
	s.epochTime = ep.Time
	s.initPacket(pk, s.rng)

	aopt := s.fillAnnealDefaults(len(pk.tasks), len(pk.procs))
	if s.warmOK {
		// Seeded packets resume the cooling schedule near its cold end:
		// the seed is already a near-solution, so the exploratory hot
		// stages would only undo it (keep-best would recover, but burn the
		// moves for nothing). The skip scales with the seed's structural
		// distance and is deterministic, so warm results cache like cold
		// ones.
		if skip := warmSkipStages(aopt.Cooling.Stages(), s.opt.Warm.Distance); skip > 0 {
			aopt.Cooling = offsetCooling{base: aopt.Cooling, skip: skip}
			s.warmSaved += skip
		}
	}
	// Append first and fill the slice element in place: a local PacketReport
	// whose address crosses into anneal escapes to the heap on every epoch.
	s.packets = append(s.packets, PacketReport{
		Time:        ep.Time,
		Candidates:  len(pk.tasks),
		Idle:        len(pk.procs),
		InitialCost: pk.Cost(),
		// Fallback: if every annealing run fails (configuration-only error
		// path) the current mapping is kept and its cost reported.
		FinalCost: pk.Cost(),
	})
	report := &s.packets[len(s.packets)-1]

	s.anneal(pk, aopt, report)

	out := pk.assignments()
	report.Assigned = len(out)
	return out
}

// anneal anneals the packet and adopts the result. With Restarts ≤ 1 one
// run anneals pk in place on the scheduler's RNG. Otherwise each restart
// anneals its own clone on an RNG seeded from the scheduler stream, and
// the lowest-cost mapping wins, ties to the lowest index.
//
// Every live run's Stepper executes one temperature stage per barrier, in
// restart order, on this goroutine. A run draws only from its own RNG, so
// stepping the runs in turn gives each the stream it would see alone. At
// every barrier the loop polls Interrupt and Bound; cooperative runs then
// share the incumbent (abandonLagging), and tempering exchanges replica
// states. No decision depends on timing, so equal seeds give equal
// schedules.
func (s *Scheduler) anneal(pk *packet, aopt anneal.Options, report *PacketReport) {
	n := max(s.opt.Restarts, 1)
	if len(s.runs) < n {
		s.runs = append(s.runs, make([]restartRun, n-len(s.runs))...)
	}
	runs := s.runs[:n]
	temper := n > 1 && s.opt.Tempering
	for r := range runs {
		run := &runs[r]
		run.cur = pk
		rng := s.rng
		if n > 1 {
			// Per-restart seeds come from the scheduler stream in restart
			// order; setup draws only from the restart's own RNG.
			seed := s.rng.Int63()
			if run.rng == nil {
				run.rng = anneal.NewRand(seed)
			} else {
				run.rng.Seed(seed)
			}
			rng = run.rng
			run.cur = &run.pk
			run.pk.cloneFrom(pk)
			if r > 0 {
				// Fresh initial mapping for the retry; restart 0 keeps the
				// packet's original init. Warm runs re-seed every restart
				// from the same warm assignment (their RNG streams diverge
				// from move one).
				run.pk.clearMapping()
				s.initPacket(&run.pk, rng)
			}
		}
		ropt := aopt
		ropt.RNG = rng
		if temper {
			run.rung = scaledCooling{base: aopt.Cooling, scale: math.Pow(temperRatio, float64(r))}
			ropt.Cooling = &run.rung
		}
		run.trace = run.trace[:0]
		if s.opt.RecordTrace {
			ropt.OnMove = func(mi anneal.MoveInfo) {
				run.trace = append(run.trace, TracePoint{
					Iter:  mi.Move,
					Temp:  mi.Temp,
					Delta: mi.Delta,
					Fb:    run.cur.Fb(),
					Fc:    run.cur.Fc(),
					Ftot:  run.cur.Cost(),
				})
			}
		}
		run.err = run.step.Reset(run.cur, ropt)
		run.stopped = run.err != nil
		run.lag = 0
	}
	abandonAfter := 0
	switch {
	case temper:
		// Every rung must stay live for exchanges to percolate good
		// states toward the cold end, so abandonment is disabled. The
		// exchange RNG's seed follows the restarts' seeds.
		seed := s.rng.Int63()
		if s.exchRng == nil {
			s.exchRng = anneal.NewRand(seed)
		} else {
			s.exchRng.Seed(seed)
		}
	case n > 1 && s.opt.Cooperative:
		abandonAfter = s.opt.AbandonAfter
		if abandonAfter == 0 {
			abandonAfter = defaultAbandonAfter
		}
	}

	for stage := 0; ; stage++ {
		live := false
		for r := range runs {
			if run := &runs[r]; !run.stopped {
				run.stopped = !run.step.Step()
				live = true
			}
		}
		if !live {
			break
		}
		// Interrupt (the request context, threaded in by the solver) cuts
		// the anneal short; the best mapping so far is still adopted and
		// the simulator surfaces the cancellation itself. This is the one
		// wall-clock-dependent exit, and it only fires on runs whose
		// results are being discarded.
		if s.opt.Interrupt != nil && s.opt.Interrupt() != nil {
			break
		}
		// The portfolio's incumbent bound, polled at anneal granularity:
		// the epoch's simulation clock only advances, so once it exceeds
		// the incumbent best this run cannot win — stop annealing now
		// instead of finishing the packet and letting the simulator's next
		// event-batch poll abort the run. Same wall-clock caveat (and the
		// same discarded-runs-only guarantee) as Interrupt.
		if s.opt.Bound != nil && s.opt.Bound(s.epochTime) != nil {
			break
		}
		if abandonAfter > 0 {
			s.abandonLagging(runs, abandonAfter, report)
		}
		if temper {
			s.exchangeReplicas(runs, stage, report)
		}
	}

	best := -1
	for r := range runs {
		run := &runs[r]
		if run.err != nil {
			continue
		}
		run.res = run.step.Result()
		report.Moves += run.res.Moves
		report.Accepted += run.res.Accepted
		report.Stages += run.res.Stages
		if best < 0 || run.res.FinalCost < runs[best].res.FinalCost {
			best = r
		}
	}
	if best < 0 {
		return // every run failed: keep the current mapping
	}
	win := &runs[best]
	if win.cur != pk {
		pk.adoptMapping(win.cur)
	}
	report.FinalCost = win.res.FinalCost
	report.PlateauStop = win.res.PlateauStop
	report.Restart = best
	if s.opt.RecordTrace {
		report.Trace = append(report.Trace[:0], win.trace...)
	}
}

// abandonLagging applies the cooperative incumbent rule at a barrier. The
// incumbent is the run with the lowest best cost, ties to the lowest
// index — the rule that picks the final winner — and is never abandoned.
// Any other live run whose best has trailed the incumbent's for after
// consecutive barriers is abandoned.
func (s *Scheduler) abandonLagging(runs []restartRun, after int, report *PacketReport) {
	inc := -1
	for r := range runs {
		if runs[r].err == nil && (inc < 0 || runs[r].step.BestCost() < runs[inc].step.BestCost()) {
			inc = r
		}
	}
	if inc < 0 {
		return // every run failed validation
	}
	incBest := runs[inc].step.BestCost()
	for r := range runs {
		run := &runs[r]
		if run.stopped || r == inc {
			continue
		}
		if run.step.BestCost() > incBest {
			run.lag++
		} else {
			run.lag = 0
		}
		if run.lag >= after {
			run.step.Abandon()
			run.stopped = true
			s.abandoned++
			report.Abandoned++
		}
	}
}

// initPacket fills a freshly reset (or cleared) packet's initial mapping
// according to the scheduler options: the warm seed when one is active,
// else HLF-greedy or random. All three are deterministic for a fixed RNG
// stream position.
func (s *Scheduler) initPacket(pk *packet, rng *anneal.Rand) {
	switch {
	case s.warmOK:
		pk.initWarm(s.opt.Warm.Assignment)
	case s.opt.GreedyInit:
		pk.initGreedy()
	default:
		pk.initRandom(rng)
	}
}

// warmSkipFrac is the fraction of the cooling schedule a zero-distance
// warm seed skips; warmMinStages is the cold tail every warm run keeps so
// the seed is still polished locally.
const (
	warmSkipFrac  = 0.9
	warmMinStages = 6
)

// warmSkipStages returns how many leading cooling stages a warm run at the
// given structural distance skips out of stages total.
func warmSkipStages(stages int, distance float64) int {
	if distance < 0 {
		distance = 0
	}
	if distance > 1 {
		distance = 1
	}
	skip := int(float64(stages) * warmSkipFrac * (1 - distance))
	if skip > stages-warmMinStages {
		skip = stages - warmMinStages
	}
	if skip < 0 {
		skip = 0
	}
	return skip
}

// offsetCooling drops the first skip stages of a base schedule: stage k
// runs at the base's temperature for stage k+skip. A warm-started anneal
// uses it to resume the schedule near its cold end.
type offsetCooling struct {
	base anneal.Cooling
	skip int
}

func (c offsetCooling) Name() string {
	return fmt.Sprintf("%s+%d", c.base.Name(), c.skip)
}
func (c offsetCooling) Temperature(stage int) float64 {
	return c.base.Temperature(stage + c.skip)
}
func (c offsetCooling) Stages() int { return c.base.Stages() - c.skip }

// scaledCooling scales a base schedule's temperatures by a constant
// factor — one rung of the parallel-tempering ladder.
type scaledCooling struct {
	base  anneal.Cooling
	scale float64
}

func (c scaledCooling) Name() string {
	return fmt.Sprintf("%s*%g", c.base.Name(), c.scale)
}
func (c scaledCooling) Temperature(stage int) float64 {
	return c.scale * c.base.Temperature(stage)
}
func (c scaledCooling) Stages() int { return c.base.Stages() }

// exchangeReplicas attempts the parallel-tempering swap between adjacent
// live replicas after a stage — even pairs on even stages, odd pairs on
// odd ones, so every rung couples with both neighbours over time. The
// Metropolis rule on the inverse-temperature gap keeps the joint ladder
// distribution invariant; the exchange RNG is seeded from the scheduler
// stream and consumed only here, in index order, so swap decisions are
// identical at any worker count.
func (s *Scheduler) exchangeReplicas(runs []restartRun, stage int, report *PacketReport) {
	for r := stage % 2; r+1 < len(runs); r += 2 {
		a, b := &runs[r], &runs[r+1]
		if a.stopped || b.stopped {
			continue
		}
		ta := a.rung.Temperature(stage)
		tb := b.rung.Temperature(stage)
		if ta <= 0 || tb <= 0 {
			continue
		}
		// Accept with prob min(1, exp((1/Ta - 1/Tb) * (Ea - Eb))): a
		// better state always moves to the colder rung.
		d := (1/ta - 1/tb) * (a.step.Cost() - b.step.Cost())
		if d < 0 && s.exchRng.Float64() >= math.Exp(d) {
			continue
		}
		a.cur.swapCurrent(b.cur)
		ca, cb := a.step.Cost(), b.step.Cost()
		a.step.SetCost(cb)
		b.step.SetCost(ca)
		s.exchanges++
		report.Exchanges++
	}
}

// fillAnnealDefaults completes the annealing options with packet-scaled
// values: the number of elementary moves per temperature grows with the
// mapping's neighborhood size.
func (s *Scheduler) fillAnnealDefaults(numTasks, numProcs int) anneal.Options {
	aopt := s.opt.Anneal
	if aopt.Cooling == nil {
		aopt.Cooling = anneal.Geometric{T0: 1, Alpha: 0.9, NumStages: 60}
	}
	if aopt.MovesPerStage <= 0 {
		moves := 2 * numTasks * numProcs
		if moves < 20 {
			moves = 20
		}
		if moves > 400 {
			moves = 400
		}
		aopt.MovesPerStage = moves
	}
	if aopt.PlateauStages == 0 {
		aopt.PlateauStages = 5
	}
	if aopt.MaxMoves == 0 {
		aopt.MaxMoves = 20000
	}
	return aopt
}

// AvgCandidates returns the mean number of ready candidates per packet
// (the paper reports ≈15 for Newton-Euler).
func (s *Scheduler) AvgCandidates() float64 {
	if len(s.packets) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.packets {
		sum += float64(p.Candidates)
	}
	return sum / float64(len(s.packets))
}

// AvgIdle returns the mean number of free processors per packet (the
// paper reports ≈1.46 for Newton-Euler).
func (s *Scheduler) AvgIdle() float64 {
	if len(s.packets) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.packets {
		sum += float64(p.Idle)
	}
	return sum / float64(len(s.packets))
}
