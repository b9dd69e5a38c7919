package machsim

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/taskgraph"
	"repro/internal/topology"
)

const defaultMaxEvents = 50_000_000

// Simulator is a reusable discrete-event simulation arena. It executes one
// taskgraph on one machine under one policy per Run, and every piece of
// per-run state — link occupancy tables, ready/idle sets, the event heap,
// in-flight messages, epoch and Gantt buffers, the Result itself — lives in
// simulator-owned buffers that are reset, not reallocated, between runs.
//
// Lifecycle:
//
//	sim := machsim.NewArena()            // or NewSimulator(model, opts)
//	sim.Bind(model, opts)                // rebind to a (new) model; grows buffers
//	res, err := sim.Run(policy)          // reset + simulate; res is arena-owned
//
// A warm Run (same model, buffers at peak size) performs zero heap
// allocations, provided the policy itself does not allocate. The returned
// Result and its slices are owned by the simulator and valid only until
// the next Bind or Run call; use Result.Clone to retain one. The
// package-level Run helper draws an arena from an internal pool and
// returns a detached clone, so existing callers keep value semantics.
//
// A Simulator is not safe for concurrent use; give each goroutine its own.
type Simulator struct {
	model Model
	opts  Options
	np    int // processors
	nt    int // tasks

	now     float64
	seq     int64
	queue   eventHeap
	tracker *taskgraph.ReadyTracker

	procs []procState

	// Link occupancy is a flat row-major table indexed low*np+high over
	// canonical links (mirroring core.packet's commCost layout); touched
	// records which entries carried traffic so reset and result-building
	// cost O(links used), not O(np²). Bus topologies serialize on the
	// dedicated shared-medium scalars instead.
	linkFree []float64
	linkBusy []float64
	linkSeen []bool
	touched  []int32
	busFree  float64
	busBusy  float64
	busSeen  bool

	procOf   []int     // processor of each assigned task, -1 before assignment
	startAt  []float64 // computation start time of each task, -1 before start
	finishAt []float64 // completion time of each task, -1 before completion

	epochs   []EpochStat
	gantt    []Interval
	messages int
	xferTime float64
	ovhTime  float64
	forced   int
	events   int

	levels taskgraph.LevelScratch // for the forced-assignment fallback

	// Reusable epoch workspace: the Epoch value handed to the policy, the
	// ready/idle index buffers, and generation-stamped marks replacing the
	// per-epoch validation maps (an entry is "set" iff its stamp equals the
	// current generation, so clearing is a counter increment).
	ep        Epoch
	readyBuf  []taskgraph.TaskID
	idleBuf   []int
	markGen   int64
	readyMark []int64 // per task
	idleMark  []int64 // per proc
	seenTask  []int64 // per task
	seenProc  []int64 // per proc

	// Message slab: messages are fixed-size records handed out by cursor
	// and reclaimed wholesale on reset, so warm runs allocate none.
	msgs    []*message
	msgNext int

	ganttSort ganttSorter

	// Arena-owned result, rebuilt in place by each Run.
	res         Result
	resProcs    []ProcStat
	resLinkBusy map[[2]int]float64
}

// procState tracks one processor.
type procState struct {
	idle bool
	// ovhBusyUntil is the time until which the processor is occupied by
	// message-handling overheads (σ/τ). Overheads serialize.
	ovhBusyUntil float64
	assigned     taskgraph.TaskID // task held by this processor, None if idle
	scheduled    bool             // start/finish computed (all input messages delivered)
	runStart     float64
	runFinish    float64
	runLoad      float64
	finishSeq    int64
	pendingMsgs  int
	stat         ProcStat
}

// ganttSorter orders intervals by (Proc, Start, End) without the per-call
// closure allocation of sort.Slice.
type ganttSorter struct{ a []Interval }

func (g *ganttSorter) Len() int      { return len(g.a) }
func (g *ganttSorter) Swap(i, j int) { g.a[i], g.a[j] = g.a[j], g.a[i] }
func (g *ganttSorter) Less(i, j int) bool {
	if g.a[i].Proc != g.a[j].Proc {
		return g.a[i].Proc < g.a[j].Proc
	}
	if g.a[i].Start != g.a[j].Start {
		return g.a[i].Start < g.a[j].Start
	}
	return g.a[i].End < g.a[j].End
}

// NewArena returns an empty, unbound simulator arena. Bind attaches a
// model before the first Run.
func NewArena() *Simulator {
	return &Simulator{resLinkBusy: make(map[[2]int]float64)}
}

// NewSimulator validates the model and prepares a bound simulator.
func NewSimulator(m Model, opts Options) (*Simulator, error) {
	s := NewArena()
	if err := s.Bind(m, opts); err != nil {
		return nil, err
	}
	return s, nil
}

// Bind validates the model and (re)binds the arena to it, growing buffers
// as needed; state from a previous model is discarded. Binding is the cold
// path — it may allocate (level computation, first-time buffer growth) —
// while subsequent Runs against the same binding do not.
func (s *Simulator) Bind(m Model, opts Options) error {
	if err := m.Validate(); err != nil {
		return err
	}
	s.model = m
	s.opts = opts
	if s.opts.MaxEvents == 0 {
		s.opts.MaxEvents = defaultMaxEvents
	}
	s.np = m.Topo.N()
	s.nt = m.Graph.NumTasks()
	if s.levels.Fill(m.Graph) != s.nt {
		// Unreachable after Model.Validate (which rejects cycles), kept as
		// a defensive invariant.
		return fmt.Errorf("machsim: taskgraph %q is cyclic", m.Graph.Name())
	}
	if s.tracker == nil {
		s.tracker = taskgraph.NewReadyTracker(m.Graph)
	} else {
		s.tracker.Rebind(m.Graph)
	}
	s.procs = growSlice(s.procs, s.np)
	s.procOf = growSlice(s.procOf, s.nt)
	s.startAt = growSlice(s.startAt, s.nt)
	s.finishAt = growSlice(s.finishAt, s.nt)
	s.readyMark = growSlice(s.readyMark, s.nt)
	s.seenTask = growSlice(s.seenTask, s.nt)
	s.idleMark = growSlice(s.idleMark, s.np)
	s.seenProc = growSlice(s.seenProc, s.np)
	s.linkFree = growSlice(s.linkFree, s.np*s.np)
	s.linkBusy = growSlice(s.linkBusy, s.np*s.np)
	s.linkSeen = growSlice(s.linkSeen, s.np*s.np)
	// A previous binding's marks and link state may linger in the grown
	// buffers; wipe them so stale stamps cannot collide.
	for i := range s.linkSeen {
		s.linkFree[i], s.linkBusy[i], s.linkSeen[i] = 0, 0, false
	}
	s.touched = s.touched[:0]
	s.busFree, s.busBusy, s.busSeen = 0, 0, false
	s.ep.Sim = s
	return nil
}

// growSlice returns sl resized to length n, reusing its backing array when
// capacity allows.
func growSlice[T any](sl []T, n int) []T {
	if cap(sl) < n {
		return make([]T, n)
	}
	return sl[:n]
}

// reset rewinds all per-run state; buffers keep their capacity.
func (s *Simulator) reset() {
	s.now = 0
	s.seq = 0
	s.queue.reset()
	s.tracker.Reset()
	for i := range s.procs {
		s.procs[i] = procState{idle: true, assigned: taskgraph.None}
	}
	for i := range s.procOf {
		s.procOf[i] = -1
		s.startAt[i] = -1
		s.finishAt[i] = -1
	}
	for _, idx := range s.touched {
		s.linkFree[idx], s.linkBusy[idx], s.linkSeen[idx] = 0, 0, false
	}
	s.touched = s.touched[:0]
	s.busFree, s.busBusy, s.busSeen = 0, 0, false
	s.epochs = s.epochs[:0]
	s.gantt = s.gantt[:0]
	s.messages = 0
	s.xferTime = 0
	s.ovhTime = 0
	s.forced = 0
	s.events = 0
	s.msgNext = 0
}

// simPool backs the package-level Run helper: arenas are recycled across
// calls so every layer that still uses the one-shot API (experiments,
// examples, tests) gets buffer reuse for free.
var simPool = sync.Pool{New: func() any { return NewArena() }}

// Run simulates the execution of model.Graph on model.Topo under policy p.
// The returned Result is detached (safe to retain); callers that run many
// simulations and want the allocation-free path should hold their own
// arena via NewSimulator/Bind and use the Run method instead.
func Run(m Model, p Policy, opts Options) (*Result, error) {
	s := simPool.Get().(*Simulator)
	defer simPool.Put(s)
	if err := s.Bind(m, opts); err != nil {
		return nil, err
	}
	res, err := s.Run(p)
	if err != nil {
		return nil, err
	}
	return res.Clone(), nil
}

// Graph returns the taskgraph being executed.
func (s *Simulator) Graph() *taskgraph.Graph { return s.model.Graph }

// Topo returns the machine topology.
func (s *Simulator) Topo() *topology.Topology { return s.model.Topo }

// Comm returns the communication parameters.
func (s *Simulator) Comm() topology.CommParams { return s.model.Comm }

// Now returns the current simulation time.
func (s *Simulator) Now() float64 { return s.now }

// ProcOf returns the processor a task was assigned to, or -1 if the task
// has not been assigned yet. Policies use this to locate the outputs of
// finished predecessors.
func (s *Simulator) ProcOf(t taskgraph.TaskID) int { return s.procOf[t] }

// FinishTime returns a task's completion time, or -1 if it has not
// completed.
func (s *Simulator) FinishTime(t taskgraph.TaskID) float64 { return s.finishAt[t] }

// IsDone reports whether the task has completed.
func (s *Simulator) IsDone(t taskgraph.TaskID) bool { return s.finishAt[t] >= 0 }

// Run resets the arena and drives the event loop to completion. The
// returned Result is arena-owned: valid until the next Bind or Run.
func (s *Simulator) Run(p Policy) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("machsim: nil policy")
	}
	if s.model.Graph == nil {
		return nil, fmt.Errorf("machsim: unbound simulator (call Bind first)")
	}
	s.reset()
	for !s.tracker.AllDone() {
		if s.opts.Stop != nil {
			if err := s.opts.Stop(s.now); err != nil {
				return nil, fmt.Errorf("machsim: interrupted at t=%.3f: %w", s.now, err)
			}
		}
		if s.queue.len() == 0 {
			// Nothing in flight: the policy must make progress now.
			if err := s.epoch(p, true); err != nil {
				return nil, err
			}
			continue
		}
		t := s.queue.peek().time
		if t < s.now {
			return nil, fmt.Errorf("machsim: time went backwards (%.6f < %.6f)", t, s.now)
		}
		s.now = t
		// Drain the full batch of simultaneous events; processing may add
		// new events at the same instant (zero-duration hops), which join
		// the batch.
		for s.queue.len() > 0 && s.queue.peek().time <= t {
			ev := s.queue.pop()
			s.events++
			if s.events > s.opts.MaxEvents {
				return nil, fmt.Errorf("machsim: event cap %d exceeded", s.opts.MaxEvents)
			}
			s.handle(ev)
		}
		if err := s.epoch(p, false); err != nil {
			return nil, err
		}
	}
	return s.result(p), nil
}

func (s *Simulator) handle(ev event) {
	switch ev.kind {
	case evFinish:
		ps := &s.procs[ev.proc]
		if ps.finishSeq != ev.seq || ps.assigned != ev.task {
			return // postponed by a preemption; a newer event is queued
		}
		s.finishTask(ev.proc)
	case evMsgReady:
		s.sendHop(ev.msg)
	case evMsgArrive:
		s.arrive(ev.msg)
	}
}

// finishTask completes the scheduled task on proc at the current time.
func (s *Simulator) finishTask(proc int) {
	ps := &s.procs[proc]
	task := ps.assigned
	if s.opts.RecordGantt {
		s.gantt = append(s.gantt, Interval{
			Proc: proc, Kind: KindCompute, Task: task,
			Start: ps.runStart, End: ps.runFinish,
		})
	}
	ps.stat.ComputeTime += ps.runLoad
	ps.stat.TasksRun++
	s.startAt[task] = ps.runStart
	s.finishAt[task] = ps.runFinish
	ps.idle = true
	ps.assigned = taskgraph.None
	ps.scheduled = false
	ps.pendingMsgs = 0
	if _, err := s.tracker.Complete(task); err != nil {
		// Internal invariant: tasks finish exactly once.
		panic(fmt.Sprintf("machsim: %v", err))
	}
}

// epoch forms an assignment epoch at the current time and applies the
// policy's assignments. When force is true and the policy assigns nothing
// while work remains, the highest-level ready task is placed on the first
// idle processor so the simulation cannot stall.
func (s *Simulator) epoch(p Policy, force bool) error {
	ready := s.tracker.AppendReady(s.readyBuf[:0])
	s.readyBuf = ready
	idle := s.idleBuf[:0]
	for i := range s.procs {
		if s.procs[i].idle {
			idle = append(idle, i)
		}
	}
	s.idleBuf = idle
	if len(ready) == 0 || len(idle) == 0 {
		if force && s.queue.len() == 0 && !s.tracker.AllDone() {
			return fmt.Errorf("machsim: stuck at t=%.3f: %d ready, %d idle, nothing in flight",
				s.now, len(ready), len(idle))
		}
		return nil
	}
	s.ep.Time = s.now
	s.ep.Ready = ready
	s.ep.Idle = idle
	assignments := p.Assign(&s.ep)
	if err := s.checkAssignments(assignments, ready, idle); err != nil {
		return err
	}
	if len(assignments) == 0 && force {
		// Liveness fallback; counted so tests can assert it never happens
		// with well-behaved policies.
		best := ready[0]
		for _, t := range ready[1:] {
			if s.levels.Levels[t] > s.levels.Levels[best] {
				best = t
			}
		}
		assignments = []Assignment{{Task: best, Proc: idle[0]}}
		s.forced++
	}
	s.epochs = append(s.epochs, EpochStat{
		Time: s.now, Ready: len(ready), Idle: len(idle), Assigned: len(assignments),
	})
	for _, a := range assignments {
		if err := s.assign(a.Task, a.Proc); err != nil {
			return err
		}
	}
	return nil
}

// checkAssignments validates the policy's output against the epoch's
// ready/idle sets using generation-stamped marks instead of per-epoch
// maps: an entry is set iff its stamp equals the current generation.
func (s *Simulator) checkAssignments(as []Assignment, ready []taskgraph.TaskID, idle []int) error {
	s.markGen++
	gen := s.markGen
	for _, t := range ready {
		s.readyMark[t] = gen
	}
	for _, p := range idle {
		s.idleMark[p] = gen
	}
	for _, a := range as {
		switch {
		case int(a.Task) < 0 || int(a.Task) >= s.nt || s.readyMark[a.Task] != gen:
			return fmt.Errorf("machsim: policy assigned non-ready task %d", a.Task)
		case a.Proc < 0 || a.Proc >= s.np || s.idleMark[a.Proc] != gen:
			return fmt.Errorf("machsim: policy assigned to non-idle processor %d", a.Proc)
		case s.seenTask[a.Task] == gen:
			return fmt.Errorf("machsim: policy assigned task %d twice", a.Task)
		case s.seenProc[a.Proc] == gen:
			return fmt.Errorf("machsim: policy assigned two tasks to processor %d", a.Proc)
		}
		s.seenTask[a.Task] = gen
		s.seenProc[a.Proc] = gen
	}
	return nil
}

// newMessage hands out a message record from the slab, growing it only
// when the run needs more messages than any previous run.
func (s *Simulator) newMessage() *message {
	if s.msgNext < len(s.msgs) {
		m := s.msgs[s.msgNext]
		s.msgNext++
		*m = message{}
		return m
	}
	m := &message{}
	s.msgs = append(s.msgs, m)
	s.msgNext++
	return m
}

// assign places a ready task on an idle processor at the current time and
// launches the input messages from remotely-located predecessors.
func (s *Simulator) assign(task taskgraph.TaskID, proc int) error {
	if err := s.tracker.Claim(task); err != nil {
		return err
	}
	ps := &s.procs[proc]
	ps.idle = false
	ps.assigned = task
	ps.scheduled = false
	ps.runLoad = s.model.Graph.Load(task)
	s.procOf[task] = proc

	// Launch one message per remote predecessor.
	pending := 0
	for _, h := range s.model.Graph.Predecessors(task) {
		src := s.procOf[h.To]
		if src < 0 {
			return fmt.Errorf("machsim: task %d assigned before predecessor %d", task, h.To)
		}
		if src == proc {
			continue // same processor: no message, no cost (δ term of eq. 4)
		}
		pending++
		m := s.newMessage()
		m.from = h.To
		m.to = task
		m.cur = src
		m.dst = proc
		m.xfer = s.model.Comm.TransferTime(h.Bits)
		s.messages++
		// σ send overhead on the source processor, then the message enters
		// the network.
		end := s.charge(src, s.now, s.model.Comm.EffSigma(), KindSend, m)
		s.push(event{time: end, kind: evMsgReady, msg: m})
	}
	ps.pendingMsgs = pending
	if pending == 0 {
		s.startRun(proc, s.now)
	}
	return nil
}

// startRun computes the start/finish of the task held by proc, given that
// its inputs are complete at time ready.
func (s *Simulator) startRun(proc int, ready float64) {
	ps := &s.procs[proc]
	start := ready
	if ps.ovhBusyUntil > start {
		start = ps.ovhBusyUntil
	}
	ps.scheduled = true
	ps.runStart = start
	ps.runFinish = start + ps.runLoad
	s.pushFinish(proc)
}

// pushFinish (re)schedules the finish event of proc's task. The sequence
// number doubles as a version: stale finish events still in the queue are
// ignored when popped.
func (s *Simulator) pushFinish(proc int) {
	ps := &s.procs[proc]
	s.seq++
	ps.finishSeq = s.seq
	s.queue.push(event{time: ps.runFinish, seq: ps.finishSeq, kind: evFinish, proc: proc, task: ps.assigned})
}

// push enqueues an event with a fresh sequence number.
func (s *Simulator) push(e event) {
	s.seq++
	e.seq = s.seq
	s.queue.push(e)
}

// charge books a message-handling overhead of the given duration on a
// processor starting no earlier than now, and returns the time the
// overhead completes. Overheads serialize on the processor; if a task is
// executing there, its completion is postponed by the overhead duration
// ("incoming messages preempt an active processor"); if a task has been
// scheduled but not started, its start is pushed back as needed.
func (s *Simulator) charge(proc int, now, dur float64, kind IntervalKind, m *message) float64 {
	ps := &s.procs[proc]
	start := now
	if ps.ovhBusyUntil > start {
		start = ps.ovhBusyUntil
	}
	end := start + dur
	ps.ovhBusyUntil = end
	if dur > 0 {
		ps.stat.OverheadTime += dur
		s.ovhTime += dur
		if s.opts.RecordGantt {
			s.gantt = append(s.gantt, Interval{
				Proc: proc, Kind: kind, Task: m.to, From: m.from, Start: start, End: end,
			})
		}
		if ps.scheduled {
			if start >= ps.runStart {
				// Preempts the executing task.
				ps.runFinish += dur
				s.pushFinish(proc)
			} else if end > ps.runStart {
				// Delays a task that has not started yet.
				ps.runStart = end
				ps.runFinish = end + ps.runLoad
				s.pushFinish(proc)
			}
		}
	}
	return end
}

// sharedMediumKey is the link-resource key used for all transfers on a
// bus topology, where the whole medium carries one message at a time.
var sharedMediumKey = [2]int{-1, -1}

// sendHop moves a message onto the next link of its path, waiting for the
// link to be free (one message at a time per link; on a bus, one message
// at a time on the whole medium).
func (s *Simulator) sendHop(m *message) {
	next := s.model.Topo.NextHop(m.cur, m.dst)
	m.nxt = next
	start := s.now
	if s.model.Topo.SharedMedium() {
		if s.busFree > start {
			start = s.busFree
		}
		s.busFree = start + m.xfer
		s.busBusy += m.xfer
		s.busSeen = true
	} else {
		lo, hi := m.cur, next
		if lo > hi {
			lo, hi = hi, lo
		}
		idx := lo*s.np + hi
		if !s.linkSeen[idx] {
			s.linkSeen[idx] = true
			s.touched = append(s.touched, int32(idx))
		}
		if s.linkFree[idx] > start {
			start = s.linkFree[idx]
		}
		s.linkFree[idx] = start + m.xfer
		s.linkBusy[idx] += m.xfer
	}
	s.xferTime += m.xfer
	s.push(event{time: start + m.xfer, kind: evMsgArrive, msg: m})
}

// arrive handles a message reaching the node at the far end of its current
// link: route onward (τ at the intermediate node) or deliver (τ at the
// destination).
func (s *Simulator) arrive(m *message) {
	m.cur = m.nxt
	node := m.cur
	if node != m.dst {
		end := s.charge(node, s.now, s.model.Comm.EffTau(), KindRoute, m)
		s.push(event{time: end, kind: evMsgReady, msg: m})
		return
	}
	tau := s.model.Comm.EffTau()
	if s.opts.DisableReceiveOverhead {
		tau = 0
	}
	end := s.charge(node, s.now, tau, KindReceive, m)
	ps := &s.procs[node]
	if ps.assigned != m.to {
		panic(fmt.Sprintf("machsim: message for task %d delivered to processor %d holding task %d",
			m.to, node, ps.assigned))
	}
	ps.pendingMsgs--
	if ps.pendingMsgs == 0 {
		s.startRun(node, end)
	}
}

// result rebuilds the arena-owned Result in place. Its slices alias the
// simulator's buffers; Clone detaches them.
func (s *Simulator) result(p Policy) *Result {
	makespan := 0.0
	for _, f := range s.finishAt {
		if f > makespan {
			makespan = f
		}
	}
	t1 := s.model.Graph.TotalLoad()
	clear(s.resLinkBusy)
	for _, idx := range s.touched {
		s.resLinkBusy[[2]int{int(idx) / s.np, int(idx) % s.np}] = s.linkBusy[idx]
	}
	if s.busSeen {
		s.resLinkBusy[sharedMediumKey] = s.busBusy
	}
	s.resProcs = growSlice(s.resProcs, s.np)
	for i := range s.procs {
		s.resProcs[i] = s.procs[i].stat
	}
	res := &s.res
	*res = Result{
		Policy:         p.Name(),
		Makespan:       makespan,
		SequentialTime: t1,
		Messages:       s.messages,
		TransferTime:   s.xferTime,
		OverheadTime:   s.ovhTime,
		Epochs:         s.epochs,
		Forced:         s.forced,
		Start:          s.startAt,
		Finish:         s.finishAt,
		Proc:           s.procOf,
		Procs:          s.resProcs,
		LinkBusy:       s.resLinkBusy,
	}
	if makespan > 0 {
		res.Speedup = t1 / makespan
	}
	if s.opts.RecordGantt {
		s.ganttSort.a = s.gantt
		sort.Sort(&s.ganttSort)
		res.Gantt = s.gantt
	}
	return res
}
