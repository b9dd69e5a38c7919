// Package obs is the observability substrate of the serving stack: a
// request-scoped stage trace carried through context.Context across every
// layer (service handlers, the engine's queues and workers, the solver
// portfolio, the simulator), plus the latency histograms, the completed-
// trace ring buffer and the sampling knob the surfaces above it —
// /metrics, /debug/requests, structured request logs and the wire "trace"
// block — are built from.
//
// Cost model: a request that is not being traced carries no *Trace in its
// context, and every instrumentation point starts with a nil check — the
// disabled path is one context lookup and a branch, no allocation, no
// lock. Traced requests draw their Trace from a sync.Pool (stage buffers
// are reused across requests), and whether a request is traced is decided
// by an explicit wire flag or an atomic 1-in-N sampler, so the knob can be
// turned at runtime without a lock on the hot path.
//
// Stage taxonomy (top-level stages tile the request end to end — they do
// not overlap, so their durations sum to the traced wall time up to
// scheduling jitter; Depth > 0 stages are sub-spans that overlap their
// parent, e.g. portfolio members inside the solve stage):
//
//	decode        wire JSON -> ScheduleRequest
//	canonicalize  validation, canonical graph encoding, fingerprint, cache key
//	mem_tier      memory-tier consult (and singleflight arbitration)
//	singleflight  waiting on an identical in-flight solve
//	disk_tier     persistent-tier consult
//	warm_seed     near-miss lookup, base schedule read, seed projection
//	materialize   canonical form -> *Graph, solver-request checks
//	engine_queue  admission to worker pickup (per-lane queue wait)
//	solve         worker-held solver execution
//	marshal       result -> wire JSON
package obs

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical stage names. Layers record stages under these so the
// per-stage histograms and trace consumers see one taxonomy.
const (
	StageDecode       = "decode"
	StageCanonicalize = "canonicalize"
	StageMemTier      = "mem_tier"
	StageSingleflight = "singleflight"
	StageDiskTier     = "disk_tier"
	StageRemoteTier   = "remote_tier"
	StageWarmSeed     = "warm_seed"
	StageMaterialize  = "materialize"
	StageQueue        = "engine_queue"
	StageSolve        = "solve"
	StageMarshal      = "marshal"

	// Proxy-side stages, recorded by dtproxy rather than dtserve.
	StageProxyRoute = "proxy_route"
	StageHedge      = "hedge"
)

// Stages lists every top-level stage name in hot-path order — the order
// a cold solve's trace reports them, and the label set of the per-stage
// duration histograms.
var Stages = []string{
	StageDecode, StageCanonicalize, StageMemTier, StageSingleflight,
	StageDiskTier, StageRemoteTier, StageWarmSeed, StageMaterialize, StageQueue,
	StageSolve, StageMarshal,
}

// ProxyStages lists the dtproxy-side stage names in request order.
var ProxyStages = []string{StageProxyRoute, StageHedge}

// KV is one key=value annotation on a trace or a stage.
type KV struct {
	Key string
	Val string
}

// Stage is one recorded stage of a trace: a named interval at an offset
// from the trace start. Depth 0 stages tile the request (non-overlapping);
// deeper stages are sub-spans inside a top-level stage (e.g. individual
// portfolio members inside "solve") and overlap their parent.
type Stage struct {
	Name  string
	Depth int
	Start time.Duration // offset from the trace start
	Dur   time.Duration
	Notes []KV
}

// Trace is one request's stage record. Create with NewTrace, carry with
// With/FromContext, snapshot with Snapshot, and return to the pool with
// Release. All methods tolerate a nil receiver (the not-traced fast
// path) and are safe for concurrent use — portfolio members record their
// sub-stages from racing goroutines.
type Trace struct {
	mu     sync.Mutex
	id     string
	t0     time.Time
	stages []Stage
	notes  []KV
}

var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// NewTrace draws a Trace from the pool, stamped with id and starting at
// t0 (zero t0 means now).
func NewTrace(id string, t0 time.Time) *Trace {
	tr := tracePool.Get().(*Trace)
	if t0.IsZero() {
		t0 = time.Now()
	}
	tr.id = id
	tr.t0 = t0
	return tr
}

// Release returns tr to the pool, keeping its stage buffer for reuse.
// The caller must not touch tr afterwards; snapshots taken earlier stay
// valid (they are detached copies).
func Release(tr *Trace) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.id = ""
	tr.t0 = time.Time{}
	tr.stages = tr.stages[:0]
	tr.notes = tr.notes[:0]
	tr.mu.Unlock()
	tracePool.Put(tr)
}

// ID returns the trace's span ID ("" on nil).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// StartTime returns the trace's monotonic start.
func (tr *Trace) StartTime() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return tr.t0
}

// Observe records an already-measured top-level stage. Nil-safe.
func (tr *Trace) Observe(name string, start time.Time, dur time.Duration, notes ...KV) {
	if tr == nil {
		return
	}
	tr.observe(name, 0, start, dur, notes)
}

// ObserveSub records a depth-1 sub-stage (one that overlaps its parent,
// e.g. a portfolio member inside the solve stage). Nil-safe.
func (tr *Trace) ObserveSub(name string, start time.Time, dur time.Duration, notes ...KV) {
	if tr == nil {
		return
	}
	tr.observe(name, 1, start, dur, notes)
}

func (tr *Trace) observe(name string, depth int, start time.Time, dur time.Duration, notes []KV) {
	off := start.Sub(tr.t0)
	if off < 0 {
		off = 0
	}
	tr.mu.Lock()
	tr.stages = append(tr.stages, Stage{Name: name, Depth: depth, Start: off, Dur: dur, Notes: notes})
	tr.mu.Unlock()
}

// Annotate attaches a trace-level key=value note. Nil-safe.
func (tr *Trace) Annotate(key, val string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.notes = append(tr.notes, KV{Key: key, Val: val})
	tr.mu.Unlock()
}

// TraceData is a detached, marshal-ready snapshot of a completed trace —
// what the wire "trace" block, /debug/requests and the request log carry.
// Only Start is wall-clock; everything else is deterministic given the
// request's execution (tests assert on names, order and counts, not
// durations).
type TraceData struct {
	ID      string            `json:"id"`
	Start   time.Time         `json:"start"`
	TotalNS int64             `json:"total_ns"`
	Stages  []StageData       `json:"stages"`
	Notes   map[string]string `json:"notes,omitempty"`
}

// StageData is the wire form of one stage record.
type StageData struct {
	Stage   string            `json:"stage"`
	Depth   int               `json:"depth,omitempty"`
	StartNS int64             `json:"start_ns"`
	DurNS   int64             `json:"duration_ns"`
	Notes   map[string]string `json:"notes,omitempty"`
}

// Snapshot renders the trace into a detached TraceData with the given
// end-to-end total, stages ordered by start offset (ties keep record
// order). The trace itself is untouched, so a snapshot may be taken
// before the final stages land (e.g. for the response body) and again at
// request end.
func (tr *Trace) Snapshot(total time.Duration) *TraceData {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	td := &TraceData{
		ID:      tr.id,
		Start:   tr.t0,
		TotalNS: total.Nanoseconds(),
		Stages:  make([]StageData, len(tr.stages)),
	}
	for i, st := range tr.stages {
		td.Stages[i] = StageData{
			Stage:   st.Name,
			Depth:   st.Depth,
			StartNS: st.Start.Nanoseconds(),
			DurNS:   st.Dur.Nanoseconds(),
			Notes:   kvMap(st.Notes),
		}
	}
	// Insertion sort by start offset: stages are recorded at completion,
	// which is already nearly start-ordered, and the slices are tiny.
	for i := 1; i < len(td.Stages); i++ {
		for j := i; j > 0 && td.Stages[j].StartNS < td.Stages[j-1].StartNS; j-- {
			td.Stages[j], td.Stages[j-1] = td.Stages[j-1], td.Stages[j]
		}
	}
	td.Notes = kvMap(tr.notes)
	return td
}

func kvMap(kvs []KV) map[string]string {
	if len(kvs) == 0 {
		return nil
	}
	m := make(map[string]string, len(kvs))
	for _, kv := range kvs {
		m[kv.Key] = kv.Val
	}
	return m
}

type ctxKey struct{}

// With returns a context carrying tr. With(ctx, nil) strips any trace —
// the portfolio uses this so racing members cannot interleave trace-level
// annotations; their sub-stages are recorded by the portfolio itself.
func With(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the context's trace, or nil — the disabled fast
// path every instrumentation point branches on.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// NewID returns a 16-hex-character span ID. IDs are for correlation
// (response header <-> log line <-> /debug/requests entry), not
// security, so a fast non-cryptographic source is fine.
func NewID() string {
	var b [8]byte
	v := rand.Uint64()
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return hex.EncodeToString(b[:])
}

// Sampler is an atomic 1-in-N trace sampler: Sample reports true for
// every N-th call. The rate can be changed at runtime (SetEvery) without
// locking the callers.
type Sampler struct {
	every atomic.Int64
	n     atomic.Uint64
}

// SetEvery sets the sampling rate: 0 (or negative) disables sampling,
// 1 samples everything, N samples one call in N.
func (s *Sampler) SetEvery(n int) { s.every.Store(int64(n)) }

// Every returns the current rate.
func (s *Sampler) Every() int { return int(s.every.Load()) }

// Sample reports whether this call is sampled.
func (s *Sampler) Sample() bool {
	every := s.every.Load()
	if every <= 0 {
		return false
	}
	if every == 1 {
		return true
	}
	return s.n.Add(1)%uint64(every) == 0
}
