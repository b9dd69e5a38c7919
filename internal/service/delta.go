package service

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/engine"
	"repro/internal/taskgraph"
)

// DeltaRequest is the wire form of POST /v1/schedule/delta: online
// rescheduling against a previously answered solve. Base is the content
// address of the original (the X-DTServe-Address header of its
// response); Edits is the change list the server applies to the cached
// canonical graph. The edited problem inherits every option of the base
// — topology, communication parameters, solver, seed, weights, restarts
// — so the delta solves exactly "the same request with an edited graph".
//
// By default the solve warm-starts from the base's cached assignment
// (that is the point of naming a base); NoWarm disables seeding, in
// which case the response is byte-identical to a cold /v1/schedule call
// with the edited graph.
type DeltaRequest struct {
	Base  string      `json:"base"`
	Edits []DeltaEdit `json:"edits"`
	// NoWarm solves the edited graph cold (parity mode).
	NoWarm bool `json:"nowarm,omitempty"`
	// TimeoutMS overrides the base's solve budget; 0 inherits it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Lane, NoCache and Trace behave exactly as on ScheduleRequest.
	Lane    string `json:"lane,omitempty"`
	NoCache bool   `json:"nocache,omitempty"`
	Trace   bool   `json:"trace,omitempty"`
}

// DeltaEdit is one graph edit. Op selects the field set:
//
//	add_task  {task, name?, load}   append task (IDs stay dense)
//	set_load  {task, load}          change a task's load
//	add_edge  {from, to, bits}      add a dependency (volumes merge)
//	set_edge  {from, to, bits}      set an existing dependency's volume
//	del_edge  {from, to}            remove a dependency
//
// Task deletion is deliberately absent: it would renumber the dense ID
// space and break the assignment projection that makes deltas cheap.
type DeltaEdit struct {
	Op   string   `json:"op"`
	Task int      `json:"task,omitempty"`
	Name string   `json:"name,omitempty"`
	Load *float64 `json:"load,omitempty"`
	From int      `json:"from,omitempty"`
	To   int      `json:"to,omitempty"`
	Bits *float64 `json:"bits,omitempty"`
}

// applyEdit applies one edit to the base graph c has read, before it is
// checked: tasks and edges are addressed by their position in the
// indexed document, which for the canonical graphs the index stores is
// their ID and canonical order. Whatever the edits leave wrong about the
// graph — a self-loop, a negative volume, a cycle — is rejected later by
// the same checks a /v1/schedule graph goes through.
func applyEdit(c *taskgraph.Canonicalizer, e DeltaEdit) error {
	n := c.NumTasks()
	switch e.Op {
	case "add_task":
		if e.Task != n {
			return badRequest("add_task: task id %d must be the next dense id %d", e.Task, n)
		}
		load := 0.0
		if e.Load != nil {
			load = *e.Load
		}
		c.AppendTask(e.Task, e.Name, load)
	case "set_load":
		if e.Task < 0 || e.Task >= n {
			return badRequest("set_load: no task %d", e.Task)
		}
		if e.Load == nil {
			return badRequest("set_load: missing load")
		}
		c.SetLoad(e.Task, *e.Load)
	case "add_edge":
		if e.Bits == nil {
			return badRequest("add_edge: missing bits")
		}
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return badRequest("edge %d->%d references a missing task", e.From, e.To)
		}
		c.AppendEdge(e.From, e.To, *e.Bits)
	case "set_edge":
		if e.Bits == nil {
			return badRequest("set_edge: missing bits")
		}
		if !c.SetEdge(e.From, e.To, *e.Bits) {
			return badRequest("set_edge: no edge %d->%d", e.From, e.To)
		}
	case "del_edge":
		if !c.DeleteEdge(e.From, e.To) {
			return badRequest("del_edge: no edge %d->%d", e.From, e.To)
		}
	default:
		return badRequest("unknown edit op %q (want add_task, set_load, add_edge, set_edge or del_edge)", e.Op)
	}
	return nil
}

// editGraph reads an indexed graph into c and applies the edit list to
// it. A graph encoding/json cannot decode is a 500 (the index is
// corrupt); a bad edit is a 400 naming the edit's position in the list.
func editGraph(c *taskgraph.Canonicalizer, graph []byte, edits []DeltaEdit) error {
	if err := c.Read(graph); err != nil {
		return &httpError{status: http.StatusInternalServerError,
			msg: "service: corrupt indexed graph: " + err.Error()}
	}
	for i, e := range edits {
		if err := applyEdit(c, e); err != nil {
			return badRequest("edit %d: %v", i, err)
		}
	}
	return nil
}

// handleDelta answers POST /v1/schedule/delta: resolve the base from the
// similarity index, read its canonical graph into a pooled
// taskgraph.Canonicalizer and apply the edit list there, rebuild the
// base's request around the edited graph, and run it through the exact
// same process pipeline as /v1/schedule — cache tiers, singleflight,
// accounting and all. The graph is read once and checked once, as on
// /v1/schedule: process canonicalizes the edited state the handler hands
// it, and no edited document is ever written out. Only the seeding
// differs: unless NoWarm is set, the solve warm-starts from the base's
// own assignment.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if s.draining.Load() {
		writeError(w, errDraining())
		return
	}
	var dreq DeltaRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&dreq); err != nil {
		writeError(w, badRequest("decode delta request: %v", err))
		return
	}
	if dreq.Base == "" {
		writeError(w, badRequest("missing base address"))
		return
	}
	ent, ok := s.sim.Get(dreq.Base)
	if !ok {
		writeError(w, &httpError{status: http.StatusNotFound,
			msg: "service: unknown base address (not indexed, or evicted)"})
		return
	}
	scratch := canonPool.Get().(*canonScratch)
	defer putScratch(scratch)
	if err := editGraph(&scratch.c, ent.Graph, dreq.Edits); err != nil {
		writeError(w, err)
		return
	}

	// Rebuild the base's request around the edited graph. The full
	// CommOverride pins every communication parameter to the base's
	// resolved values, so defaults drifting between releases can never
	// make a delta diverge from its base's option block.
	opt := ent.Opt
	wb := opt.Wb
	timeoutMS := opt.Timeout
	if dreq.TimeoutMS != 0 {
		timeoutMS = dreq.TimeoutMS
	}
	raw := rawRequest{
		Topo: ent.Spec,
		Comm: &CommOverride{
			Bandwidth: &opt.Comm.Bandwidth,
			Sigma:     &opt.Comm.Sigma,
			Tau:       &opt.Comm.Tau,
			Scale:     &opt.Comm.Scale,
		},
		Solver:          opt.Solver,
		Seed:            opt.Seed,
		Wb:              &wb,
		Restarts:        opt.Restarts,
		Cooperative:     opt.Cooperative,
		Tempering:       opt.Tempering,
		TimeoutMS:       timeoutMS,
		MemberTimeoutMS: opt.MemberTimeout,
		Lane:            dreq.Lane,
		NoCache:         dreq.NoCache,
		Trace:           dreq.Trace,
		scanned:         scratch,
	}

	sw, _ := w.(*statusWriter)
	explicit := wantsTrace(&raw, r)
	ctx, tr := s.startTrace(r.Context(), sw, t0, explicit)
	if sw == nil && tr != nil {
		defer func() { s.finishTrace(tr, time.Since(t0)) }()
	}
	meta := &procMeta{warmBase: dreq.Base, noWarm: dreq.NoWarm}
	if dreq.NoWarm {
		meta.warmBase = ""
	}
	body, status, err := s.process(ctx, &raw, engine.LaneInteractive, meta)
	if sw != nil {
		sw.lane = laneName(raw.Lane, engine.LaneInteractive)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	s.account(status)
	tr.Annotate("cache", status)
	tr.Annotate("delta_base", dreq.Base)
	if tr != nil && explicit {
		body = appendTraceBody(body, tr.Snapshot(time.Since(t0)))
	}
	writeResult(w, body, status, meta)
}
