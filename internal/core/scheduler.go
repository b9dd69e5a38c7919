package core

import (
	"fmt"

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
	// Cooling is the temperature schedule every packet anneals on; nil
	// means the paper's 60-stage geometric schedule (anneal.DefaultOptions).
	// The rest of the paper's §6a schedule is fixed: 2·n·p moves per stage
	// for a packet of n candidates on p idle processors, clamped to
	// 20–400, a plateau stop after 5 stages within 1e-12, and a 20 000-move
	// cap per run.
	Cooling anneal.Cooling
	// Seed drives all stochastic choices; equal seeds give equal schedules.
	Seed int64
	// RecordTrace keeps the per-move cost trajectories (Fb, Fc, Ftot) of
	// every packet, as plotted in the paper's Figure 1. With restarts,
	// the trace of the winning (lowest-cost) restart is kept.
	RecordTrace bool
	// Restarts anneals each packet this many times from independent
	// initial mappings and keeps the lowest-cost one. 0 or 1 means a
	// single run. Restarts anneal cloned packets with deterministic
	// per-restart seeds, one temperature stage each per barrier on the
	// calling goroutine, in the loop a single run takes, so a solve with r
	// restarts costs about r single solves — and equal seeds still give
	// equal schedules.
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
	// AbandonAfter is the cooperative patience in stage barriers. 0
	// means the default (5); negative disables abandonment (restarts
	// still share the barrier schedule and incumbent).
	AbandonAfter int
	// Stop, when non-nil, is polled at every stage barrier, in every
	// restart mode, with the current assignment epoch's simulation time —
	// a monotone lower bound on this run's final makespan. A non-nil error
	// stops the anneal early (the best mapping so far is still adopted).
	// The solver layer installs the same hook it hands the simulator: the
	// request context, then the portfolio's incumbent bound. So a run that
	// is being discarded — a cancelled request, a portfolio member that
	// can no longer beat the incumbent — stops mid-anneal instead of
	// finishing the packet and waiting for the simulator's next event-batch
	// poll. Stop only fires on such runs, so determinism of served results
	// is unaffected.
	Stop func(now float64) error
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

// defaultAbandonAfter is the cooperative patience when AbandonAfter is 0.
const defaultAbandonAfter = 5

// DefaultOptions returns the configuration used for the Table 2
// reproduction: equal weights on the paper's cooling schedule.
func DefaultOptions() Options { return Options{Wb: 0.5, Wc: 0.5} }

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
// rule saw, and Accepted is that rule's decision.
type TracePoint struct {
	Iter     int
	Temp     float64
	Delta    float64
	Fb       float64
	Fc       float64
	Ftot     float64
	Accepted bool
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
	// cooperative incumbent rule; it is zero outside cooperative restarts.
	Abandoned int
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
	levels taskgraph.LevelScratch
	opt    Options
	rng    *anneal.Rand

	// pk is the arena-backed packet reused across epochs; runs holds the
	// per-run workspaces (grown on demand, reused across epochs).
	pk   packet
	runs []restartRun

	// temps is the solve's cooling schedule with its stage temperatures
	// cached; every packet anneals on it.
	temps stageTemps

	// abandoned totals the restarts stopped by the cooperative incumbent
	// rule, surfaced through RestartsAbandoned.
	abandoned int

	// Warm-start state: warmOK is whether Options.Warm is usable for this
	// binding (covers every task), warmSaved totals the cooling stages
	// skipped across packets, and epochTime is the current assignment
	// epoch's simulation clock for the Stop barrier poll.
	warmOK    bool
	warmSaved int
	epochTime float64

	packets []PacketReport
}

// restartRun is the workspace of one annealing run of a packet.
type restartRun struct {
	// cur is the packet the run anneals and rng the stream it draws from:
	// the scheduler's own for a single run, else the run's clone pk and
	// its own seeded RNG.
	cur    *packet
	pk     packet
	rng    *anneal.Rand
	seeded *anneal.Rand
	// st is the run's stage bookkeeping: stage, plateau, move budget and
	// result.
	st    anneal.Run
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
	if n := s.levels.Fill(g); n != g.NumTasks() {
		return fmt.Errorf("core: taskgraph %q: cycle detected (%d of %d tasks ordered)", g.Name(), n, g.NumTasks())
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
	s.temps.Cooling = nil // fillAnnealDefaults binds opt's schedule
	s.abandoned = 0
	s.warmOK = opt.Warm != nil && len(opt.Warm.Assignment) == g.NumTasks()
	s.warmSaved = 0
	s.epochTime = 0
	return nil
}

// Name implements machsim.Policy. With restarts the name carries the
// restart count ("SA(r=4)") so portfolio traces and solver listings are
// unambiguous about the configuration that produced a result.
func (s *Scheduler) Name() string {
	if s.opt.Restarts > 1 {
		if s.opt.Cooperative {
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
	pk.reset(ep.Ready, ep.Idle, ep.Sim.ProcOf, s.levels.Levels, s.topo, s.comm, s.g, s.opt.Wb, s.opt.Wc)
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
// Every live run anneals one temperature stage per barrier (annealStage),
// in restart order, on this goroutine. A run draws only from its own RNG,
// so stepping the runs in turn gives each the stream it would see alone.
// At every barrier the loop polls Stop, and cooperative runs then share
// the incumbent (abandonLagging). No decision depends on timing, so equal
// seeds give equal schedules.
func (s *Scheduler) anneal(pk *packet, aopt anneal.Options, report *PacketReport) {
	n := max(s.opt.Restarts, 1)
	if len(s.runs) < n {
		s.runs = append(s.runs, make([]restartRun, n-len(s.runs))...)
	}
	runs := s.runs[:n]
	for r := range runs {
		run := &runs[r]
		run.cur, run.rng = pk, s.rng
		if n > 1 {
			// Per-restart seeds come from the scheduler stream in restart
			// order; setup draws only from the restart's own RNG.
			seed := s.rng.Int63()
			if run.seeded == nil {
				run.seeded = anneal.NewRand(seed)
			} else {
				run.seeded.Seed(seed)
			}
			run.cur, run.rng = &run.pk, run.seeded
			run.pk.cloneFrom(pk)
			if r > 0 {
				// Fresh initial mapping for the retry; restart 0 keeps the
				// packet's original init. Warm runs re-seed every restart
				// from the same warm assignment (their RNG streams diverge
				// from move one).
				run.pk.clearMapping()
				s.initPacket(&run.pk, run.rng)
			}
		}
		run.trace = run.trace[:0]
		run.st.Start(aopt, run.cur.Cost(), run.cur)
		run.stopped, run.lag = false, 0
	}
	abandonAfter := 0
	if n > 1 && s.opt.Cooperative {
		abandonAfter = s.opt.AbandonAfter
		if abandonAfter == 0 {
			abandonAfter = defaultAbandonAfter
		}
	}

	for {
		live := false
		for r := range runs {
			if run := &runs[r]; !run.stopped {
				run.stopped = !s.annealStage(run)
				live = true
			}
		}
		if !live || s.stopAtBarrier() {
			break
		}
		if abandonAfter > 0 {
			s.abandonLagging(runs, abandonAfter, report)
		}
	}

	best := 0
	for r := range runs {
		res := runs[r].st.Finish()
		report.Moves += res.Moves
		report.Accepted += res.Accepted
		report.Stages += res.Stages
		if res.FinalCost < runs[best].st.FinalCost {
			best = r
		}
	}
	win := &runs[best]
	if win.cur != pk {
		pk.adoptMapping(win.cur)
	}
	report.FinalCost = win.st.FinalCost
	report.PlateauStop = win.st.PlateauStop
	report.Restart = best
	if s.opt.RecordTrace {
		report.Trace = append(report.Trace[:0], win.trace...)
	}
}

// annealStage anneals one temperature stage of run and reports whether
// another stage follows; run.st states the stage, plateau, move-cap and
// keep-best rules.
//
// Every move runs in an anneal kernel: anneal.Column.Stage when the packet
// has one idle processor (four in five annealing moves of the catalog
// programs, PERFORMANCE.md §25), and anneal.Grid.Stage when it has two or
// more. Each makes the packet's §5.2a moves with their draws, eq. 1
// decision and update inline and without a branch on the decision. The
// tests keep the packet's Propose, anneal.Accept and Apply as the
// reference, which gives the same answers to the bit
// (FuzzStageMatchesMinimize). The kernels keep the mapping and the eq. 6
// cost, not the raw components Fb and Fc that only Figure 1 plots.
//
// An untraced stage is one kernel call and leaves the packet's components
// as they were. A traced one calls the kernel for one move at a time,
// reads each accepted move back from the mapping, updates the components
// with moveSums (saving them as the best whenever the kernel's best cost
// drops) and appends the move's TracePoint to run.trace. A packet of one
// candidate on one processor has no other mapping, so its run ends in its
// first stage with no move.
func (s *Scheduler) annealStage(run *restartRun) bool {
	temp, inv, budget, ok := run.st.Begin()
	if !ok {
		return false
	}
	pk, rng := run.cur, run.rng
	n, p := len(pk.tasks), len(pk.procs)
	iter, accepted := run.st.Moves, 0
	switch {
	case n == 1 && p == 1:
		return run.st.End(run.st.Cost, run.st.BestCost, 0, 0, true)
	case p == 1:
		// Every init fills the slot; the kernel reads column 0 of the table.
		init := pk.taskAt[0]
		col := anneal.Column{
			C: pk.contrib[:n], N: pk.drawN, N1: pk.drawN1,
			Cur: init, Cost: run.st.Cost, Best: run.st.BestCost, BestCur: pk.bestTaskAt[0],
		}
		if !s.opt.RecordTrace {
			accepted = col.Stage(rng, temp, inv, budget)
		} else {
			for k := 0; k < budget; k++ {
				other, best := col.Cur, col.Best
				a := col.Stage(rng, temp, inv, 1)
				if a != 0 {
					pk.moveSums(col.Cur, 0, -1, other)
				}
				accepted += a
				run.traceMove(iter+k, temp, col.Delta, a != 0, col.Best < best)
			}
		}
		pk.procOf[init], pk.procOf[col.Cur], pk.taskAt[0] = -1, 0, col.Cur
		pk.bestTaskAt[0] = col.BestCur // SaveBest
		return run.st.End(col.Cost, col.Best, budget, accepted, false)
	default:
		gr := anneal.Grid{
			C: pk.contrib, TaskAt: pk.taskAt, ProcOf: pk.procOf, N: pk.drawN, P: pk.drawP, P1: pk.drawP1,
			Cost: run.st.Cost, Best: run.st.BestCost, BestTaskAt: pk.bestTaskAt,
		}
		if !s.opt.RecordTrace {
			accepted = gr.Stage(rng, temp, inv, budget)
			return run.st.End(gr.Cost, gr.Best, budget, accepted, false)
		}
		// The mapping before the move, from which an accepted move's
		// candidate gr.I tells its old slot cur and the candidate other
		// it displaced.
		prev := grow(pk.idxScratch, p+n)
		pk.idxScratch = prev
		prevTaskAt, prevProcOf := prev[:p], prev[p:]
		copy(prevTaskAt, pk.taskAt)
		copy(prevProcOf, pk.procOf)
		for k := 0; k < budget; k++ {
			best := gr.Best
			a := gr.Stage(rng, temp, inv, 1)
			if a != 0 {
				i := gr.I
				cur, j := prevProcOf[i], pk.procOf[i]
				pk.moveSums(i, j, cur, prevTaskAt[j])
				copy(prevTaskAt, pk.taskAt)
				copy(prevProcOf, pk.procOf)
			}
			accepted += a
			run.traceMove(iter+k, temp, gr.Delta, a != 0, gr.Best < best)
		}
		return run.st.End(gr.Cost, gr.Best, budget, accepted, false) // the kernel kept bestTaskAt
	}
}

// traceMove ends a traced move whose running components moveSums has
// updated: it saves them as the best when the move took the run's best
// cost down (SaveBest's components; the kernel keeps the mapping's), and
// appends the move's TracePoint, the Figure 1 record of the move after its
// accept/reject decision.
func (run *restartRun) traceMove(iter int, temp, delta float64, accepted, newBest bool) {
	pk := run.cur
	if newBest {
		pk.bestFb, pk.bestFc = pk.rawFb, pk.rawFc
	}
	run.trace = append(run.trace, TracePoint{Iter: iter, Temp: temp, Delta: delta, Fb: pk.rawFb, Fc: pk.rawFc, Ftot: pk.Cost(), Accepted: accepted})
}

// stopAtBarrier polls Stop at a stage barrier with the epoch's simulation
// clock and reports whether it asks the anneal to stop; the best mapping so
// far is still adopted. This is the wall-clock-dependent exit, and it only
// fires on runs whose results are being discarded.
func (s *Scheduler) stopAtBarrier() bool {
	return s.opt.Stop != nil && s.opt.Stop(s.epochTime) != nil
}

// abandonLagging applies the cooperative incumbent rule at a barrier. The
// incumbent is the run with the lowest best cost, ties to the lowest
// index — the rule that picks the final winner — and is never abandoned.
// Any other live run whose best has trailed the incumbent's for after
// consecutive barriers is abandoned.
func (s *Scheduler) abandonLagging(runs []restartRun, after int, report *PacketReport) {
	inc := 0
	for r := range runs {
		if runs[r].st.BestCost < runs[inc].st.BestCost {
			inc = r
		}
	}
	incBest := runs[inc].st.BestCost
	for r := range runs {
		run := &runs[r]
		if run.stopped || r == inc {
			continue
		}
		if run.st.BestCost > incBest {
			run.lag++
		} else {
			run.lag = 0
		}
		if run.lag >= after {
			run.stopped = true
			s.abandoned++
			report.Abandoned++
		}
	}
}

// initPacket fills a freshly reset (or cleared) packet's initial mapping:
// from the warm seed when one is active, else at random. Both are
// deterministic for a fixed RNG stream position, and both fill min(n, p)
// slots.
func (s *Scheduler) initPacket(pk *packet, rng *anneal.Rand) {
	if s.warmOK {
		pk.initWarm(s.opt.Warm.Assignment)
		return
	}
	pk.initRandom(rng)
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

// stageTemps is the solve's cooling schedule with its stage temperatures
// cached. Every packet and restart of a solve anneals on the same base
// schedule, so each stage's Temperature is evaluated once per Reset
// instead of once per packet and run. The cache holds the values the base
// returned, so every temperature is bit-identical to the base's. It fills
// lazily, up to the highest stage asked for; stages past its capacity
// read the base directly.
type stageTemps struct {
	anneal.Cooling     // the base schedule; nil until fillAnnealDefaults binds it
	n              int // temps[:n] hold the base's temperatures of stages 0..n-1
	temps          [64]float64
}

func (c *stageTemps) Temperature(stage int) float64 {
	if stage >= len(c.temps) {
		return c.Cooling.Temperature(stage)
	}
	for ; c.n <= stage; c.n++ {
		c.temps[c.n] = c.Cooling.Temperature(c.n)
	}
	return c.temps[stage]
}

// paperCooling is the paper's cooling schedule, boxed once so that a
// solve on it does not allocate.
var paperCooling = anneal.DefaultOptions().Cooling

// fillAnnealDefaults returns the annealing options of a packet of
// numTasks candidates on numProcs idle processors: the paper's §6a
// constants, with 2·n·p elementary moves per temperature (clamped to
// 20–400) to match the mapping's neighbourhood size, on the solve's
// cached cooling schedule (Options.Cooling, or the paper's).
func (s *Scheduler) fillAnnealDefaults(numTasks, numProcs int) anneal.Options {
	if s.temps.Cooling == nil {
		s.temps.Cooling, s.temps.n = s.opt.Cooling, 0
		if s.temps.Cooling == nil {
			s.temps.Cooling = paperCooling
		}
	}
	return anneal.Options{
		Cooling:       &s.temps,
		MovesPerStage: min(max(2*numTasks*numProcs, 20), 400),
		PlateauStages: 5,
		PlateauEps:    1e-12,
		MaxMoves:      20000,
	}
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
