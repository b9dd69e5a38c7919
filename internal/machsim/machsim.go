// Package machsim is an event-driven execution simulator for directed
// taskgraphs on multicomputers, reproducing the machine semantics of
// D'Hollander & Devis (ICPP 1991):
//
//   - processors execute one task at a time;
//   - bidirectional point-to-point links carry one message at a time with
//     bandwidth BW; a message of L bits takes L/BW per link hop
//     (store-and-forward along the canonical shortest path);
//   - sending a message costs σ on the source processor, routing costs τ on
//     every intermediate processor and receiving costs τ on the destination;
//     "it is assumed that incoming messages preempt an active processor"
//     (§2), so these overheads stretch whatever task is running;
//   - scheduling proceeds in assignment epochs: the first at time zero,
//     later ones whenever one or more processors become idle (§4.1). At
//     each epoch a pluggable Policy maps ready tasks onto idle processors.
//
// The simulator records makespan, speedup, per-processor utilization,
// per-epoch packet statistics and, optionally, a Gantt trace in the style
// of the paper's Figure 2.
package machsim

import (
	"fmt"

	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Model bundles the immutable inputs of a simulation run.
type Model struct {
	Graph *taskgraph.Graph
	Topo  *topology.Topology
	Comm  topology.CommParams
}

// Validate checks that the model is complete and well-formed.
func (m Model) Validate() error {
	if m.Graph == nil {
		return fmt.Errorf("machsim: nil taskgraph")
	}
	if m.Topo == nil {
		return fmt.Errorf("machsim: nil topology")
	}
	if m.Graph.NumTasks() == 0 {
		return fmt.Errorf("machsim: empty taskgraph")
	}
	if err := m.Graph.Validate(); err != nil {
		return err
	}
	return m.Comm.Validate()
}

// Assignment maps one ready task onto one idle processor.
type Assignment struct {
	Task taskgraph.TaskID
	Proc int
}

// Epoch is the information a Policy sees at an assignment epoch: the
// current time, the ready (unassigned) tasks, the idle processors, and a
// read-only view of the simulator for querying task placement history.
type Epoch struct {
	Time  float64
	Ready []taskgraph.TaskID // ascending ID order
	Idle  []int              // ascending processor order
	Sim   *Simulator
}

// Policy decides, at every assignment epoch, which ready tasks start on
// which idle processors. A policy may assign at most one task per idle
// processor; tasks and processors it leaves out simply wait for a later
// epoch. Policies must not retain the Epoch or its slices.
type Policy interface {
	// Name identifies the policy in reports ("SA", "HLF", ...).
	Name() string
	// Assign returns the epoch's assignments. The returned slice is only
	// valid until the next Assign call: policies may reuse its backing
	// array, so callers must copy it to retain it across epochs.
	Assign(ep *Epoch) []Assignment
}

// Options configures a simulation run.
type Options struct {
	// RecordGantt enables interval recording for Gantt rendering.
	RecordGantt bool
	// MaxEvents aborts runaway simulations; 0 means the default of 50
	// million processed events.
	MaxEvents int
	// DisableReceiveOverhead drops the τ charge at the destination
	// processor. Equation (4) of the paper counts routing τ only for
	// intermediate hops; the simulator charges the receive τ as well by
	// default because the paper's Figure 2 Gantt chart shows explicit
	// receive blocks. This knob exists for ablations.
	DisableReceiveOverhead bool
	// Interrupt, when non-nil, is polled once per event batch; a non-nil
	// return aborts the simulation with that error. It is how callers
	// impose deadlines (e.g. a context) on long simulations: the solver
	// portfolio races policies under a shared deadline through this hook.
	Interrupt func() error
	// Bound, when non-nil, is polled like Interrupt but receives the
	// current simulation clock — a monotone lower bound on the final
	// makespan, since time never goes backwards. A non-nil return aborts
	// the run with that error. The solver portfolio uses it to cancel a
	// member whose own bound already exceeds the incumbent best result.
	Bound func(now float64) error
	// Publish, when non-nil, is called exactly once with the final
	// makespan the moment every task has finished — before result
	// assembly, statistics or cloning. The solver portfolio uses it to
	// publish a member's completed makespan into the shared incumbent as
	// early as possible, tightening the other members' Bound while they
	// are still running.
	Publish func(makespan float64)
}

// IntervalKind classifies Gantt intervals.
type IntervalKind int

// Interval kinds, mirroring the block types of the paper's Figure 2:
// full-height compute blocks, half-height send and receive blocks, and
// quarter-height route blocks.
const (
	KindCompute IntervalKind = iota
	KindSend
	KindReceive
	KindRoute
)

// String returns the kind name.
func (k IntervalKind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindSend:
		return "send"
	case KindReceive:
		return "receive"
	case KindRoute:
		return "route"
	default:
		return fmt.Sprintf("IntervalKind(%d)", int(k))
	}
}

// Interval is one block of processor activity.
type Interval struct {
	Proc  int
	Kind  IntervalKind
	Task  taskgraph.TaskID // computing task; for message kinds, the consumer
	From  taskgraph.TaskID // message producer (message kinds only)
	Start float64
	End   float64
}

// EpochStat records one assignment epoch, backing the paper's §6a
// observation ("on the average there are 15 candidates for 1.46 free
// processors").
type EpochStat struct {
	Time     float64
	Ready    int // candidate tasks in the packet
	Idle     int // free processors in the packet
	Assigned int
}

// ProcStat aggregates one processor's activity.
type ProcStat struct {
	ComputeTime  float64 // pure task execution time (sum of loads)
	OverheadTime float64 // σ/τ message handling time
	TasksRun     int
}

// Result reports a completed simulation.
type Result struct {
	Policy         string
	Makespan       float64
	SequentialTime float64 // T1 = Σ load
	Speedup        float64 // T1 / Makespan
	Messages       int     // inter-processor messages
	TransferTime   float64 // Σ per-hop link occupancy
	OverheadTime   float64 // Σ σ/τ charges across processors
	Epochs         []EpochStat
	Procs          []ProcStat
	Gantt          []Interval // nil unless Options.RecordGantt
	// Forced counts liveness fallbacks: epochs where the policy declined
	// to assign anything while the simulator had no pending events, forcing
	// the highest-level ready task onto the first idle processor. A correct
	// policy never triggers this.
	Forced int
	// Start holds each task's computation start time (after its input
	// messages arrived).
	Start []float64
	// Finish holds each task's completion time.
	Finish []float64
	// Proc holds each task's processor.
	Proc []int
	// LinkBusy holds the total transfer time carried by each link,
	// keyed by canonical (low, high) processor pairs; on a bus topology
	// the single shared medium is keyed {-1, -1}.
	LinkBusy map[[2]int]float64
	// Raced marks a result whose identity (not its quality) depended on
	// wall-clock timing — e.g. a portfolio race resolved by early
	// cancellation, where which member supplied the winning schedule is a
	// timing fact. The service serves raced results but never caches them.
	Raced bool
	// Pruned counts portfolio members cancelled mid-run because their own
	// makespan lower bound exceeded the incumbent best (Options.Bound).
	// Whether a member gets pruned before finishing is a wall-clock fact,
	// so results with Pruned > 0 are also flagged Raced.
	Pruned int
	// Members records the per-member outcome of a portfolio race (nil for
	// single-solver results): who ran, how long, and how each ended.
	// WallNS is wall-clock and therefore excluded from the cached wire
	// body; the service folds it into metrics and traces instead.
	Members []MemberStat
	// RestartsAbandoned counts SA restarts stopped early by the
	// cooperative incumbent rule (core.Options.Cooperative). Unlike
	// Pruned, abandonment is decided at seed-deterministic stage barriers
	// — never by wall clock — so results with abandonment stay cacheable.
	RestartsAbandoned int
	// WarmEpochsSaved counts the annealing (cooling) stages the SA
	// scheduler skipped because the solve was warm-started from a cached
	// assignment (core.Options.Warm), summed over packets. Deterministic
	// for a fixed (seed, warm seed), so warm results stay cacheable.
	WarmEpochsSaved int
	// AnnealMoves and AnnealAccepted sum the annealing moves the SA
	// scheduler proposed and accepted over every packet of the solve
	// (all restarts included) — the acceptance ratio's numerator and
	// denominator. Zero for solvers that do not anneal.
	AnnealMoves    int
	AnnealAccepted int
	// BoundUpdates counts successful tightenings of the portfolio's
	// shared incumbent bound during the race that produced this result:
	// each one is a completed member publishing a makespan that strictly
	// improved the bound the still-running members prune against.
	BoundUpdates int
}

// MemberStat is one portfolio member's run record.
type MemberStat struct {
	// Member is the member solver's registry name.
	Member string
	// Outcome classifies how the member's run ended: "win" (supplied the
	// returned schedule), "finish" (completed but lost), "pruned"
	// (cancelled by the incumbent bound), "timeout" (lost to its own
	// MemberTimeout), "cancelled" (the shared context ended or an early
	// cancel fired), or "error".
	Outcome string
	// WallNS is the member's wall-clock solve time.
	WallNS int64
	// Makespan is the member's completed makespan (0 when it never
	// finished).
	Makespan float64
}

// Clone returns a deep copy of the result, detached from any simulator
// arena: safe to retain across subsequent Bind/Run calls.
func (r *Result) Clone() *Result {
	out := *r
	if r.Epochs != nil {
		out.Epochs = append([]EpochStat(nil), r.Epochs...)
	}
	if r.Procs != nil {
		out.Procs = append([]ProcStat(nil), r.Procs...)
	}
	if r.Gantt != nil {
		out.Gantt = append([]Interval(nil), r.Gantt...)
	}
	if r.Start != nil {
		out.Start = append([]float64(nil), r.Start...)
	}
	if r.Finish != nil {
		out.Finish = append([]float64(nil), r.Finish...)
	}
	if r.Proc != nil {
		out.Proc = append([]int(nil), r.Proc...)
	}
	if r.LinkBusy != nil {
		out.LinkBusy = make(map[[2]int]float64, len(r.LinkBusy))
		for k, v := range r.LinkBusy {
			out.LinkBusy[k] = v
		}
	}
	if r.Members != nil {
		out.Members = append([]MemberStat(nil), r.Members...)
	}
	return &out
}

// MaxLinkBusy returns the busiest link's total transfer time (0 when no
// messages flowed).
func (r *Result) MaxLinkBusy() float64 {
	best := 0.0
	for _, v := range r.LinkBusy {
		if v > best {
			best = v
		}
	}
	return best
}

// AvgReady returns the mean packet candidate count over all epochs.
func (r *Result) AvgReady() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range r.Epochs {
		sum += float64(e.Ready)
	}
	return sum / float64(len(r.Epochs))
}

// AvgIdle returns the mean free-processor count over all epochs.
func (r *Result) AvgIdle() float64 {
	if len(r.Epochs) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range r.Epochs {
		sum += float64(e.Idle)
	}
	return sum / float64(len(r.Epochs))
}

// Utilization returns mean processor compute utilization over the run.
func (r *Result) Utilization() float64 {
	if r.Makespan <= 0 || len(r.Procs) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range r.Procs {
		sum += p.ComputeTime
	}
	return sum / (r.Makespan * float64(len(r.Procs)))
}
