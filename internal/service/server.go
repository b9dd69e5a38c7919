package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// Config tunes a Server.
type Config struct {
	// Workers is the engine pool's fixed size, which bounds concurrent
	// solves; <= 0 means one per CPU.
	Workers int
	// QueueDepth bounds each QoS lane's queue; submissions past it are
	// shed with a 429. <= 0 means engine.DefaultQueueDepth.
	QueueDepth int
	// QueueDelayTarget sheds new work on a lane once its oldest queued
	// job has waited longer than this (429 + Retry-After). 0 disables
	// delay-based shedding; a negative target is rejected by New.
	QueueDelayTarget time.Duration
	// InteractiveWeight is the weighted-dequeue ratio between the
	// interactive and batch lanes; <= 0 means the engine default (4).
	InteractiveWeight int
	// CacheSize is the result cache capacity in entries; <= 0 disables
	// caching.
	CacheSize int
	// CacheBytes bounds the cache's stored-bytes footprint; <= 0 means
	// 256 MiB.
	CacheBytes int64
	// CacheDir roots the persistent disk cache tier: a restarted server
	// pointed at the same directory replays previously solved graphs
	// from disk without re-solving. Empty disables the tier
	// (memory-only, the prior behavior).
	CacheDir string
	// DiskCacheBytes bounds the disk tier's on-disk footprint; <= 0
	// means 1 GiB. Ignored when CacheDir is empty.
	DiskCacheBytes int64
	// DefaultSolver answers requests that name none; empty means "sa".
	DefaultSolver string
	// DefaultTimeout bounds solves that request no timeout; 0 means none.
	DefaultTimeout time.Duration
	// MaxBatch caps the requests of one batch call; <= 0 means 256. The
	// limit is enforced by the engine's batch fan-out, not per handler.
	MaxBatch int
	// RemoteAddr points at a dtcached daemon shared by the replica fleet;
	// the server consults it between a disk miss and a cold solve
	// (memory → disk → remote → solve) and promotes remote hits into the
	// local tiers. Empty disables the tier (the prior behavior).
	RemoteAddr string
	// RemoteTimeout bounds one remote round trip (dial included); <= 0
	// means the remotecache client default (250ms). The tier degrades to
	// a counted miss on timeout — it can slow a cold solve by at most
	// this much and can never fail one.
	RemoteTimeout time.Duration
	// WrapTier, when non-nil, is called once per ladder rung ("disk",
	// then "remote") with the configured tier, or nil when the rung is
	// not configured, and returns the tier the server uses — the seam the
	// fault-injection harness (internal/chaos) plugs into, and the hook
	// tests use to substitute a fake. A rung exists only when the
	// returned tier is non-nil; the server closes only the returned tier.
	WrapTier func(name string, under Tier) Tier
	// WarmStart lets plain /v1/schedule SA requests that miss every exact
	// tier consult the similarity index and warm-start from the nearest
	// cached solve. Off by default: a warm-started result's bytes differ
	// (legitimately) from the cold solve's, so the opt-in is explicit.
	// /v1/schedule/delta warms independently of this flag — its base is
	// named by the client.
	WarmStart bool
	// WarmMaxDistance bounds the sketch distance at which the similarity
	// index may seed a warm start; <= 0 means 0.5. Delta requests name
	// their base explicitly and are exempt.
	WarmMaxDistance float64
	// SimIndexSize bounds the similarity index entries; <= 0 means 4096.
	// The index fills from cacheable SA solves regardless of WarmStart
	// (it also resolves delta bases), and persists in CacheDir.
	SimIndexSize int
	// Logger receives one structured record per request (method, path,
	// status, duration, trace ID, lane, cache tag, stage summary); nil
	// disables request logging.
	Logger *slog.Logger
	// TraceSample traces one request in every TraceSample as a background
	// profile (0 disables sampling). Requests that ask explicitly —
	// "trace": true in the body or ?trace=1 — are always traced,
	// regardless of the sampling rate.
	TraceSample int
	// TraceRecent and TraceSlowest bound the /debug/requests ring: the
	// last TraceRecent completed traces plus the TraceSlowest slowest.
	// <= 0 means 64 and 16.
	TraceRecent  int
	TraceSlowest int
}

// Server owns the solve engine, the result cache and the request counters
// behind the HTTP API. Create with New, expose with Handler, stop with
// Close. Cold solves run on the shared orchestration layer
// (internal/engine); the content-addressed cache tiers and the
// singleflight sit above it, so the engine sees only genuinely cold work.
type Server struct {
	cfg          Config
	eng          *engine.Engine
	cache        *Cache
	rungs        []*rung // the configured tiers below memory, in ladder order
	sim          *SimIndex
	solveLatency *obs.Histogram

	// Per-stage latency histograms, keyed by obs stage name. The map is
	// built once in New and read-only afterwards; the histograms are
	// internally locked. Stages land here from completed traces, so the
	// distributions describe the traced sample, not every request.
	stageLatency map[string]*obs.Histogram
	// readLatency holds each ladder rung's Get latency, hit or miss, keyed
	// by rung name — present for every name, so /metrics exports the
	// families whether or not the rung exists.
	readLatency map[string]*obs.Histogram
	diskWrite   *obs.Histogram // disk tier write-behind persist latency
	streamTTFB  *obs.Histogram // NDJSON batch: first item flushed
	sampler     obs.Sampler
	ring        *obs.Ring

	// wireSlowDecodes counts /v1/schedule bodies the one-pass scanner
	// declined, decoded by encoding/json instead.
	wireSlowDecodes atomic.Uint64
	// aliasHits counts /v1/schedule bodies answered from the memory tier
	// by their bytes' alias, without a decode. Incremented after the
	// item's account("hit"), so a snapshot never shows more alias hits
	// than memory hits.
	aliasHits atomic.Uint64

	draining  atomic.Bool
	drainCh   chan struct{} // closed by BeginDrain
	drainOnce sync.Once

	// Parsed-topology memo. Building a topology computes all-pairs
	// routes — on the warm-hit path that was ~half of all allocations,
	// paid before the cache could even answer. Topologies are immutable
	// after construction (portfolio members already share one across
	// goroutines), so requests can share the parsed value. Bounded:
	// specs are client-controlled, and an unbounded memo keyed by
	// attacker-chosen strings is a memory leak; overflow parses
	// per-request exactly as before.
	topoMu     sync.RWMutex
	topoBySpec map[string]*topology.Topology

	mu sync.Mutex
	// counts holds the counters the server keeps itself, under mu, in
	// the form Stats reports them (the Stats fields document them); the
	// rest of a snapshot is filled in by Stats.
	counts   Stats
	memHits  uint64             // items answered from the memory tier
	inflight map[string]*flight // singleflight: one solve per cache key
}

// flight is one in-flight solve that concurrent identical requests wait
// on: the leader fills body/err and closes done; every waiter then
// replays the same bytes.
type flight struct {
	done chan struct{}
	body []byte
	err  error
	// addr is the content address the leader's body landed under — the
	// warm key when the leader warm-started, else the plain key — so
	// coalesced waiters report the same X-DTServe-Address.
	addr string
	// warm/warmDist mirror the leader's warm verdict for waiters' headers.
	warm     bool
	warmDist float64
}

// procMeta carries per-request facts between process and its handler
// beyond the cache tag. warmBase/noWarm are inputs (the delta endpoint
// naming its seeding base, or refusing one); key/warm/warmDist are
// outputs: the content address the body is retrievable under and, when
// the solve was warm-started, the sketch distance of its seed.
type procMeta struct {
	warmBase string // seed from exactly this cached address (delta)
	noWarm   bool   // disable warm seeding even when the server enables it

	key      string
	warm     bool
	warmDist float64
}

// Stats is the /statsz payload. The counters obey the conservation law
//
//	solves + cache.hits + Σ rung hits + coalesced == schedule_items
//
// where the rungs are disk and remote, so Σ rung hits is disk.hits +
// remote.hits: every answered schedule item — one per /v1/schedule call,
// one per batch member — is exactly one of: a solver execution, a memory
// hit, a hit on one rung of the ladder, or a ride on an identical
// in-flight solve. (For workloads of only single schedule calls,
// schedule_items equals the successful requests; an absent rung's hits
// are identically zero.) The fields' `metric` tags declare the /metrics
// families (obs.WriteProm).
type Stats struct {
	Requests  uint64 `json:"requests" metric:"counter,API calls that reached a handler."`
	Failures  uint64 `json:"failures" metric:"counter,Requests answered with a non-2xx status."`
	Items     uint64 `json:"schedule_items" metric:"counter,Schedule items answered: one per single schedule call, one per batch member."`
	Solves    uint64 `json:"solves" metric:"counter,Solver executions (cache misses that ran a solver)."`
	Coalesced uint64 `json:"coalesced" metric:"counter,Requests answered by piggybacking on an identical in-flight solve."`
	// PortfolioPruned counts portfolio members cancelled mid-run because
	// their own makespan lower bound exceeded the incumbent best.
	PortfolioPruned uint64 `json:"portfolio_pruned" metric:"counter,Portfolio members cancelled mid-run by the incumbent bound."`
	// RestartsAbandoned counts cooperative SA restarts stopped early
	// because they lagged the shared incumbent (core.Options.Cooperative).
	// Deterministic per seed, unlike the wall-clock portfolio pruning.
	RestartsAbandoned uint64 `json:"restarts_abandoned" metric:"counter,Cooperative SA restarts abandoned early for lagging the shared incumbent (seed-deterministic)."`
	// WarmHits counts solver executions warm-started from a cached
	// near-miss assignment. Warm solves remain solves under the
	// conservation law; this is the warm sub-count.
	WarmHits uint64 `json:"warm_hits" metric:"counter,Solver executions warm-started from a cached near-miss assignment (similarity index or delta base)."`
	// WarmEpochsSaved sums the annealing stages skipped by warm starts.
	WarmEpochsSaved uint64 `json:"warm_epochs_saved" metric:"counter,Annealing stages skipped by warm-started solves."`
	// AnnealMoves and AnnealAccepted sum the SA moves proposed and
	// accepted by the solves that produced results; their ratio is the
	// served anneals' acceptance ratio.
	AnnealMoves    uint64 `json:"anneal_moves" metric:"counter,SA moves proposed by solves (summed over packets and restarts)."`
	AnnealAccepted uint64 `json:"anneal_accepted" metric:"counter,SA moves accepted by solves; divided by dtserve_anneal_moves_total it is the acceptance ratio."`
	// PortfolioBoundUpdates counts shared-incumbent tightenings during
	// portfolio races: completed members publishing makespans that
	// improved the bound still-running members prune against.
	PortfolioBoundUpdates uint64 `json:"portfolio_bound_updates" metric:"counter,Portfolio incumbent-bound tightenings published by completed members."`
	// SimIndexEntries is the similarity index's current size.
	SimIndexEntries int `json:"sim_index_entries" metric:"gauge,Entries currently held by the similarity index."`
	// Shed counts requests refused by admission control with a 429: a
	// QoS lane's queue-depth or queue-delay budget was exhausted. Shed
	// requests never become schedule items, so they sit outside the
	// conservation law.
	Shed uint64 `json:"shed" metric:"counter,Requests refused by admission control with a 429 (lane depth or queue-delay budget exhausted)."`
	// Cancelled counts solves cancelled by their caller going away — a
	// client disconnecting mid-stream, or a drain cutting a batch short.
	// Cancelled solves produce no result and are never cached.
	Cancelled uint64 `json:"cancelled" metric:"counter,Solves cancelled by their caller going away (client disconnect, drain)."`
	// WireSlowDecodes counts /v1/schedule bodies outside the one-pass
	// scanner's subset (escaped strings, unknown or case-variant keys,
	// read errors, malformed JSON, ...), decoded by encoding/json instead.
	WireSlowDecodes uint64 `json:"wire_slow_decodes" metric:"counter,/v1/schedule bodies outside the one-pass scanner's subset, decoded by encoding/json instead."`
	// AliasHits counts /v1/schedule bodies answered from the memory tier
	// by the alias of their exact bytes, skipping the decode. They are
	// memory hits: cache.hits already counts them, once.
	AliasHits uint64 `json:"alias_hits" metric:"counter,/v1/schedule bodies answered from the memory tier by the alias of their exact bytes, without a decode; a subset of the memory hits."`
	// Draining reports that BeginDrain was called: the server is
	// finishing in-flight streams and refusing new solve work.
	Draining bool              `json:"draining" metric:"gauge,1 while the server is draining (refusing new work, finishing streams)."`
	BySolver map[string]uint64 `json:"by_solver" metric:"counter,name=solves_by_solver,label=solver,Solver executions by registry name." also:"counter,name=solver_outcome,label=solver,outcome=ok,Solver executions by registry name and outcome (ok or error; sheds are excluded)."`
	// SolveErrors counts solver executions that failed (non-shed: a
	// solver error, deadline or cancellation), by registry name; with
	// BySolver these are the per-solver outcome counters /metrics exports.
	SolveErrors map[string]uint64 `json:"solve_errors,omitempty" metric:"counter,name=solver_outcome,label=solver,outcome=error"`
	// MemberOutcomes counts portfolio member runs keyed "member|outcome"
	// (outcome as in machsim.MemberStat).
	MemberOutcomes map[string]uint64 `json:"portfolio_members,omitempty" metric:"counter,name=portfolio_member,label=member|outcome,Portfolio member runs by member solver and outcome (win, finish, pruned, timeout, cancelled, error)."`
	// Traces counts completed traces retained (then possibly rotated) by
	// the /debug/requests ring.
	Traces uint64     `json:"traces" metric:"counter,Completed request traces recorded to the /debug/requests ring."`
	Cache  CacheStats `json:"cache"`
	// Disk and Remote report the two ladder rungs; an absent rung reports
	// zeros. Their Hits are law-bound and mirrored like the memory tier's.
	Disk   TierStats `json:"disk"`
	Remote TierStats `json:"remote"`
	// Pool is the engine's worker and lane snapshot.
	Pool engine.Stats `json:"pool"`
}

// tier returns the field that reports the named ladder rung.
func (st *Stats) tier(name string) *TierStats {
	if name == "remote" {
		return &st.Remote
	}
	return &st.Disk
}

// New validates the configuration and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.DefaultSolver == "" {
		cfg.DefaultSolver = "sa"
	}
	if _, err := solver.Get(cfg.DefaultSolver); err != nil {
		return nil, fmt.Errorf("service: default solver: %w", err)
	}
	if cfg.QueueDelayTarget < 0 {
		return nil, fmt.Errorf("service: negative queue delay target %v", cfg.QueueDelayTarget)
	}
	// Tiers travel as interfaces from here on: a rung that is not
	// configured stays a nil interface (never a typed nil), and the
	// WrapTier seam decides whether it exists at all.
	var disk, remote Tier
	var diskCache *DiskCache
	if cfg.CacheDir != "" {
		var err error
		if diskCache, err = NewDiskCache(cfg.CacheDir, cfg.DiskCacheBytes); err != nil {
			return nil, fmt.Errorf("service: disk cache: %w", err)
		}
		disk = diskCache
	}
	if cfg.RemoteAddr != "" {
		remote = NewRemoteCache(cfg.RemoteAddr, cfg.RemoteTimeout)
	}
	s := &Server{
		cfg: cfg,
		eng: engine.New(engine.Config{
			Workers:           cfg.Workers,
			MaxBatch:          cfg.MaxBatch,
			QueueDepth:        cfg.QueueDepth,
			QueueDelayTarget:  cfg.QueueDelayTarget,
			InteractiveWeight: cfg.InteractiveWeight,
		}),
		cache:        NewCache(cfg.CacheSize, cfg.CacheBytes),
		drainCh:      make(chan struct{}),
		solveLatency: obs.NewHistogram(obs.LatencyBuckets),
		stageLatency: make(map[string]*obs.Histogram, len(obs.Stages)),
		readLatency:  make(map[string]*obs.Histogram, len(ladder)),
		diskWrite:    obs.NewHistogram(obs.QueueBuckets),
		streamTTFB:   obs.NewHistogram(obs.LatencyBuckets),
		ring:         obs.NewRing(cfg.TraceRecent, cfg.TraceSlowest),
		sim:          NewSimIndex(cfg.SimIndexSize),
		inflight:     make(map[string]*flight),
		topoBySpec:   make(map[string]*topology.Topology),
		counts: Stats{BySolver: map[string]uint64{}, SolveErrors: map[string]uint64{},
			MemberOutcomes: map[string]uint64{}},
	}
	if cfg.CacheDir != "" {
		// The similarity index persists beside the disk tier so a restarted
		// server warm-starts against its previous working set. Load failures
		// only cost warmth, never availability.
		if err := s.sim.Load(s.simIndexPath()); err != nil && cfg.Logger != nil {
			cfg.Logger.Warn("sim index load failed", "err", err)
		}
	}
	for _, stage := range obs.Stages {
		s.stageLatency[stage] = obs.NewHistogram(obs.LatencyBuckets)
	}
	s.sampler.SetEvery(cfg.TraceSample)
	// Hook the concrete disk tier's write-behind latency into the metrics
	// histogram while the concrete type is still in hand (the WrapTier
	// seam only sees the Tier interface).
	if diskCache != nil {
		diskCache.SetWriteObserver(s.diskWrite.Observe)
	}
	configured := [len(ladder)]Tier{disk, remote}
	for i, spec := range ladder {
		read := obs.NewHistogram(obs.QueueBuckets)
		s.readLatency[spec.name] = read
		tier := configured[i]
		if cfg.WrapTier != nil {
			tier = cfg.WrapTier(spec.name, tier)
		}
		if tier != nil {
			s.rungs = append(s.rungs, &rung{name: spec.name, stage: spec.stage, local: spec.local,
				tier: tier, read: read})
		}
	}
	return s, nil
}

// BeginDrain puts the server into drain mode: new solve requests are
// refused with a 503 + Retry-After, /healthz starts failing so load
// balancers stop routing here, and in-flight NDJSON batch streams cancel
// their remaining members and flush every completed item as a full JSON
// line before closing — no stream is ever truncated mid-line. Call it
// before http.Server.Shutdown so streams wind down inside the shutdown
// grace period. Idempotent.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close stops the solve engine and drains every rung's write-behind
// queue, so every result accepted for persistence has been written (or
// counted as a failed write) before Close returns. In-flight solves
// finish first.
func (s *Server) Close() {
	s.eng.Close()
	for _, r := range s.rungs {
		r.tier.Close()
	}
	if s.cfg.CacheDir != "" {
		if err := s.sim.Save(s.simIndexPath()); err != nil && s.cfg.Logger != nil {
			s.cfg.Logger.Warn("sim index save failed", "err", err)
		}
	}
}

// simIndexPath is the similarity index's persistence file, beside the
// disk tier's entries.
func (s *Server) simIndexPath() string {
	return filepath.Join(s.cfg.CacheDir, "simindex.json")
}

// Stats snapshots the server counters. The conservation-law counters —
// solves, memory hits, rung hits, coalesced, items — are mirrored under
// the server's own lock and incremented atomically with the item count
// (account), so the law holds exactly on every snapshot: a scrape can
// never observe an item whose classification landed in a tier counter
// the snapshot missed. The tiers' internal hit counters are therefore
// overridden with the mirrors; their misses/evictions/size gauges still
// come from the tiers themselves.
func (s *Server) Stats() Stats {
	// Tier and engine snapshots are taken outside s.mu (they take their
	// own locks); only the law-bound fields come from the mirrors below.
	cs := s.cache.Stats()
	var tiers [len(ladder)]TierStats
	for i, r := range s.rungs {
		tiers[i] = r.tier.Stats()
	}
	est := s.eng.Stats()
	ring := s.ring.Snapshot()

	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.counts
	st.BySolver = maps.Clone(st.BySolver)
	st.SolveErrors = maps.Clone(st.SolveErrors)
	st.MemberOutcomes = maps.Clone(st.MemberOutcomes)
	st.SimIndexEntries = s.sim.Len()
	st.WireSlowDecodes = s.wireSlowDecodes.Load()
	st.AliasHits = s.aliasHits.Load()
	st.Draining = s.draining.Load()
	st.Traces = ring.Total
	st.Cache = cs
	st.Cache.Hits = s.memHits
	st.Pool = est
	for i, r := range s.rungs {
		tiers[i].Enabled = true // an absent rung keeps the zero TierStats
		tiers[i].Hits = r.hits
		*st.tier(r.name) = tiers[i]
	}
	return st
}

// CheckLaw verifies the conservation law
//
//	solves + cache.hits + Σ rung hits + coalesced == schedule_items
//
// (the rungs are disk and remote; an absent rung's hits are zero)
// against one replica's stats snapshot, returning a descriptive error on
// violation. Fleet and chaos tests run it on every replica.
func CheckLaw(st Stats) error {
	sum := st.Solves + st.Cache.Hits + st.Disk.Hits + st.Remote.Hits + st.Coalesced
	if sum != st.Items {
		return fmt.Errorf(
			"conservation law violated: solves %d + mem %d + disk %d + remote %d + coalesced %d = %d != items %d",
			st.Solves, st.Cache.Hits, st.Disk.Hits, st.Remote.Hits, st.Coalesced, sum, st.Items)
	}
	return nil
}

// Handler returns the service's HTTP handler with request logging wired
// around every route.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	mux.HandleFunc("POST /v1/schedule/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/schedule/delta", s.handleDelta)
	mux.HandleFunc("GET /v1/solvers", s.handleSolvers)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	return s.logged(mux)
}

// handleDebugRequests serves the completed-trace ring — the last N
// requests plus the K slowest, stage breakdowns and annotations included
// — as JSON, in the spirit of x/net/trace's /debug/requests page. Traces
// land here when sampled or explicitly requested; correlate entries with
// response headers and log lines by span ID.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ring.Snapshot())
}

// httpError carries a status code with a client-safe message. retryAfter,
// when positive, asks the client to back off: it becomes the Retry-After
// header (whole seconds, rounded up) and the retry_after_ms body field.
type httpError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// statusClientClosedRequest is the de-facto (nginx) status for a request
// whose client went away before the response: the solve was cancelled, so
// neither a success nor a server failure describes it.
const statusClientClosedRequest = 499

// statusWriter records the status code written by a handler for logging,
// and carries the request's trace state between the logging wrapper
// (which owns the span ID and the trace's completion) and the handler
// (which decides whether to trace and attaches the stages).
type statusWriter struct {
	http.ResponseWriter
	status  int
	traceID string
	trace   *obs.Trace // set by the handler when the request is traced
	lane    string     // QoS lane, for the request log
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streaming handlers (the NDJSON
// batch) keep their per-item flushes through the logging wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// finishTrace completes a trace: snapshot with the end-to-end total,
// retain in the /debug/requests ring, fold the top-level stages into the
// per-stage latency histograms, release the trace to the pool. Nil-safe;
// returns the detached snapshot.
func (s *Server) finishTrace(tr *obs.Trace, total time.Duration) *obs.TraceData {
	if tr == nil {
		return nil
	}
	td := tr.Snapshot(total)
	s.ring.Add(td)
	for _, st := range td.Stages {
		if st.Depth != 0 {
			continue // member sub-spans overlap solve; histograms tile
		}
		if h, ok := s.stageLatency[st.Stage]; ok {
			h.Observe(time.Duration(st.DurNS))
		}
	}
	obs.Release(tr)
	return td
}

// stageSummary renders a trace's top-level stages as one compact log
// field ("decode=84µs solve=31ms ...") in start order.
func stageSummary(td *obs.TraceData) string {
	var b strings.Builder
	for _, st := range td.Stages {
		if st.Depth != 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(st.Stage)
		b.WriteByte('=')
		b.WriteString(time.Duration(st.DurNS).Round(time.Microsecond).String())
	}
	return b.String()
}

// logged counts every request, stamps the span ID onto the response
// (X-DTServe-Trace-Id), completes any trace the handler attached, and —
// with a configured logger — emits one structured record per call.
func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK, traceID: obs.NewID()}
		sw.Header().Set(headerTraceID, sw.traceID)
		start := time.Now()
		next.ServeHTTP(sw, r)
		dur := time.Since(start)
		s.mu.Lock()
		s.counts.Requests++
		if sw.status >= 400 {
			s.counts.Failures++
		}
		s.mu.Unlock()
		td := s.finishTrace(sw.trace, dur)
		if s.cfg.Logger != nil {
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Duration("dur", dur.Round(time.Microsecond)),
				slog.String("trace_id", sw.traceID),
			}
			if sw.lane != "" {
				attrs = append(attrs, slog.String("lane", sw.lane))
			}
			if tag := sw.Header().Get(headerCache); tag != "" {
				attrs = append(attrs, slog.String("cache", tag))
			}
			if td != nil {
				attrs = append(attrs, slog.String("stages", stageSummary(td)))
			}
			s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		}
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	var he *httpError
	if !errors.As(err, &he) {
		he = &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	resp := ErrorResponse{Error: he.msg}
	if he.retryAfter > 0 {
		// Retry-After is whole seconds; round up so "retry after 300ms"
		// never becomes "retry immediately".
		secs := int64((he.retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		resp.RetryAfterMS = he.retryAfter.Milliseconds()
	}
	writeJSON(w, he.status, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// Failing the liveness probe during drain steers load balancers
		// away while in-flight streams finish.
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// errDraining refuses new solve work during shutdown. Retry-After points
// clients at a peer (or a restarted instance) rather than a tight loop.
func errDraining() *httpError {
	return &httpError{status: http.StatusServiceUnavailable,
		msg: "service: draining (shutting down)", retryAfter: time.Second}
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Default string        `json:"default"`
		Solvers []solver.Info `json:"solvers"`
	}{s.cfg.DefaultSolver, solver.List()})
}

const maxBodyBytes = 32 << 20

// maxRestarts caps the wire restarts knob: each restart clones the
// annealing packet and runs on its own goroutine per epoch, so an
// unbounded value would let one request exhaust the process.
const maxRestarts = 64

// wantsTrace reports whether the request asked for a trace block
// explicitly: "trace": true on the wire, or ?trace=1 on the URL.
func wantsTrace(req *rawRequest, r *http.Request) bool {
	return req.Trace || urlTrace(r)
}

// urlTrace reports whether the URL asks for a trace block (?trace=1). The
// RawQuery guard keeps query parsing (which allocates) off the common
// path of requests with no query string at all.
func urlTrace(r *http.Request) bool {
	return r.URL.RawQuery != "" && r.URL.Query().Get("trace") == "1"
}

// startTrace begins tracing a request decoded at t0 (decode finished
// now): always when the request asked explicitly, else at the sampling
// rate. The decode stage is recorded retroactively — the trace cannot
// exist before the body that requests it is decoded. Returns ctx
// unchanged when the request is not traced.
func (s *Server) startTrace(ctx context.Context, sw *statusWriter, t0 time.Time, explicit bool) (context.Context, *obs.Trace) {
	if !explicit && !s.sampler.Sample() {
		return ctx, nil
	}
	tr := newRequestTrace(sw, t0)
	// The trace's own set-up is part of the decode stage, so the stage
	// that follows starts as soon as this one is recorded.
	ctx = obs.With(ctx, tr)
	tr.Observe(obs.StageDecode, t0, time.Since(t0))
	return ctx, tr
}

// newRequestTrace starts a request's trace at t0 under the logging
// wrapper's span ID, handing the wrapper its completion; without a
// wrapper (sw nil) the handler completes it.
func newRequestTrace(sw *statusWriter, t0 time.Time) *obs.Trace {
	if sw == nil {
		return obs.NewTrace(obs.NewID(), t0)
	}
	tr := obs.NewTrace(sw.traceID, t0)
	sw.trace = tr // logged() completes and releases it
	return tr
}

// appendTraceBody splices a "trace" field into a marshaled response
// envelope. The cached body bytes are never touched — the splice builds
// a fresh buffer — so traces are per-request and never cached.
func appendTraceBody(body []byte, td *obs.TraceData) []byte {
	tb, err := json.Marshal(td)
	if err != nil {
		return body
	}
	trimmed := bytes.TrimRight(body, " \t\r\n")
	if len(trimmed) < 2 || trimmed[len(trimmed)-1] != '}' {
		return body
	}
	out := make([]byte, 0, len(trimmed)+len(tb)+10)
	out = append(out, trimmed[:len(trimmed)-1]...)
	out = append(out, `,"trace":`...)
	out = append(out, tb...)
	out = append(out, '}')
	return out
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if s.draining.Load() {
		writeError(w, errDraining())
		return
	}
	scratch := canonPool.Get().(*canonScratch)
	defer putScratch(scratch)
	rerr := scratch.readBody(w, r)
	// Bytes the memory tier answered before are answered again from
	// their alias, before any decode. A body that did not read whole, or
	// whose URL asks for a trace block, takes the full path.
	var sum [sha256.Size]byte
	aliasable := s.cache != nil && rerr == nil && !urlTrace(r)
	if aliasable {
		sum = sha256.Sum256(scratch.body)
		if s.serveAlias(w, &sum, t0) {
			return
		}
	}
	var req rawRequest
	scanned, err := s.decodeSchedule(scratch, rerr, &req)
	if err != nil {
		writeError(w, err)
		return
	}
	sw, _ := w.(*statusWriter)
	explicit := wantsTrace(&req, r)
	ctx, tr := s.startTrace(r.Context(), sw, t0, explicit)
	if sw == nil && tr != nil {
		// No logging wrapper to complete the trace (handler invoked bare,
		// e.g. from a test mux): finish it ourselves after responding.
		defer func() { s.finishTrace(tr, time.Since(t0)) }()
	}
	meta := &procMeta{}
	body, status, err := s.process(ctx, &req, engine.LaneInteractive, meta)
	if sw != nil {
		sw.lane = laneName(req.Lane, engine.LaneInteractive)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	s.account(status)
	tr.Annotate("cache", status)
	if tr != nil && explicit {
		// The response's trace block is a mid-flight snapshot: it has
		// every stage through marshal, while the header write and the
		// ring/log completion land after. Total is measured here so the
		// stage durations sum to (within the final write) the reported
		// total.
		body = appendTraceBody(body, tr.Snapshot(time.Since(t0)))
	}
	if aliasable && scanned && status == "hit" && !meta.warm && !explicit {
		// The full path answered these bytes from the memory tier under
		// their own canonical key, with nothing but the body and headers
		// the alias replays. A warm hit is not aliased: its address and
		// X-DTServe-Warm come from the near-miss the sim index picks,
		// which changes as the index grows.
		s.cache.putAlias(&sum, meta.key, laneName(req.Lane, engine.LaneInteractive))
	}
	writeResult(w, body, status, meta)
}

// serveAlias answers a body from its bytes' alias in the memory tier,
// exactly as the full path's memory hit would: same body, cache tag and
// address, counted as a memory hit. As on the full path, the singleflight
// map is consulted before the memory tier, under s.mu: a key with a solve
// in flight makes the alias a miss, as does a body with no alias, and
// serveAlias then reports false having written nothing. A sampled hit
// records the decode stage (read and hash) and the mem_tier stage, noted
// as an alias.
func (s *Server) serveAlias(w http.ResponseWriter, sum *[sha256.Size]byte, t0 time.Time) bool {
	memStart := time.Now()
	s.mu.Lock()
	body, key, lane, ok := s.cache.getAlias(sum, s.inflight)
	s.mu.Unlock()
	if !ok {
		return false
	}
	s.account("hit")
	s.aliasHits.Add(1)
	sw, _ := w.(*statusWriter)
	if sw != nil {
		sw.lane = lane
	}
	if s.sampler.Sample() {
		tr := newRequestTrace(sw, t0)
		tr.Observe(obs.StageDecode, t0, memStart.Sub(t0))
		tr.Observe(obs.StageMemTier, memStart, time.Since(memStart), obs.KV{Key: "alias", Val: "true"})
		tr.Annotate("cache", "hit")
		if sw == nil {
			defer func() { s.finishTrace(tr, time.Since(t0)) }()
		}
	}
	writeResult(w, body, "hit", &procMeta{key: key})
	return true
}

// readBody reads a /v1/schedule body into the scratch's pooled buffer,
// still capped at maxBodyBytes, returning the read error, if any, after
// the bytes read before it.
func (sc *canonScratch) readBody(w http.ResponseWriter, r *http.Request) error {
	buf := bytes.NewBuffer(sc.body[:0])
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	sc.body = buf.Bytes() // the canonicalizer's name spans point into it
	return err
}

// decodeSchedule fills req from the /v1/schedule body in scratch, read
// with the error rerr. A body read whole is decoded by scanRequest in one
// pass, which also leaves the graph read into scratch; it reports
// scanned. Whatever the scanner declines is decoded by encoding/json's
// Decoder from the same bytes — followed, if the read failed, by the same
// read error — so it answers exactly as it would have reading the body
// itself.
func (s *Server) decodeSchedule(scratch *canonScratch, rerr error, req *rawRequest) (scanned bool, err error) {
	body := scratch.body
	if rerr == nil && scanRequest(body, req, &scratch.c) {
		if len(req.Graph) > 0 && string(req.Graph) != "null" {
			req.scanned = scratch
		}
		return true, nil
	}
	s.wireSlowDecodes.Add(1)
	*req = rawRequest{} // drop whatever the declined scan had filled
	var src io.Reader = bytes.NewReader(body)
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	if err := json.NewDecoder(src).Decode(req); err != nil {
		return false, badRequest("decode request: %v", err)
	}
	return false, nil
}

// errReader replays a body read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// The response headers, spelled canonically (the form Go writes on the
// wire): Header.Set and Get rebuild any other spelling into a new string
// on every call.
const (
	headerCache   = "X-Dtserve-Cache"
	headerAddress = "X-Dtserve-Address"
	headerWarm    = "X-Dtserve-Warm"
	headerTraceID = "X-Dtserve-Trace-Id"
)

// writeResult writes a successful schedule/delta response: the body plus
// the cache tag, the content address (the base handle clients pass to
// /v1/schedule/delta), and — for warm-started solves — the sketch
// distance of the seed.
func writeResult(w http.ResponseWriter, body []byte, status string, meta *procMeta) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set(headerCache, status)
	if meta.key != "" {
		h.Set(headerAddress, meta.key)
	}
	if meta.warm {
		h.Set(headerWarm, strconv.FormatFloat(meta.warmDist, 'g', -1, 64))
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// laneName resolves the wire lane field against the handler default, for
// the request log.
func laneName(wire string, def engine.Lane) string {
	if wire == "" {
		return def.String()
	}
	if lane, err := engine.ParseLane(wire); err == nil {
		return lane.String()
	}
	return wire
}

// account records one answered schedule item together with its
// classification — exactly one of the conservation law's left-hand
// counters, in the same critical section as the item count, so
//
//	solves + mem_hits + Σ rung hits + coalesced == schedule_items
//
// holds on every snapshot, never just eventually. A rung's hits are
// tagged with its name.
func (s *Server) account(tag string) {
	s.mu.Lock()
	s.counts.Items++
	switch tag {
	case "hit":
		s.memHits++
	case "coalesced":
		s.counts.Coalesced++
	case "miss":
		s.counts.Solves++
	default:
		for _, r := range s.rungs {
			if r.name == tag {
				r.hits++
			}
		}
	}
	s.mu.Unlock()
}

// wantsNDJSON reports whether the client asked for a streamed batch.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// handleBatch answers POST /v1/schedule/batch. Both response shapes share
// one execution path: the batch fans out through the engine (which owns
// the MaxBatch limit) and items come back in completion order, each
// carrying its request index and cache status.
//
// With "Accept: application/x-ndjson" the response streams: every item is
// written — and flushed — as its solve completes, so a client consuming a
// large batch pipelines behind the fast members instead of blocking on the
// slowest. Item bodies are byte-identical to the buffered shape's; only
// the framing (one JSON object per line, completion-ordered) differs.
// Without it the items are assembled into the request-ordered
// BatchResponse envelope once all have completed.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if s.draining.Load() {
		writeError(w, errDraining())
		return
	}
	var batch rawBatch
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&batch); err != nil {
		writeError(w, badRequest("decode batch: %v", err))
		return
	}
	if len(batch.Requests) == 0 {
		writeError(w, badRequest("empty batch"))
		return
	}
	sw, _ := w.(*statusWriter)
	if sw != nil {
		sw.lane = engine.LaneBatch.String()
	}
	queryTrace := urlTrace(r)
	// Every member solves under one batch-scoped context: cancelling it —
	// because the client disconnected or the server began draining —
	// reaches each remaining member's solver through its interrupt hook,
	// so abandoned work stops burning workers. Members already finished
	// are unaffected; members cancelled mid-solve come back as error
	// items (counted in Stats.Cancelled, cached nowhere).
	bctx, bcancel := context.WithCancel(r.Context())
	defer bcancel()
	n := len(batch.Requests)
	baseID := obs.NewID()
	if sw != nil {
		baseID = sw.traceID
	}
	ch, err := engine.Fan(n, s.eng.MaxBatch(), func(i int) BatchItem {
		// Each member traces independently — explicit per-member flag (or
		// the batch-wide ?trace=1), else the sampler — under a derived
		// span ID, so a batch's members are correlated in /debug/requests
		// by their shared prefix. Member traces complete here: the ring
		// and stage histograms see each member as soon as it finishes,
		// not when the whole batch does.
		mt0 := time.Now()
		explicit := queryTrace || batch.Requests[i].Trace
		mctx := bctx
		var mtr *obs.Trace
		if explicit || s.sampler.Sample() {
			mtr = obs.NewTrace(baseID+"-"+strconv.Itoa(i), mt0)
			mctx = obs.With(bctx, mtr)
		}
		body, status, err := s.process(mctx, &batch.Requests[i], engine.LaneBatch, nil)
		if err != nil {
			s.finishTrace(mtr, time.Since(mt0))
			return BatchItem{Index: i, Error: err.Error()}
		}
		s.account(status)
		mtr.Annotate("cache", status)
		if mtr != nil && explicit {
			body = appendTraceBody(body, mtr.Snapshot(time.Since(mt0)))
		}
		s.finishTrace(mtr, time.Since(mt0))
		return BatchItem{Index: i, Cache: status, Result: body}
	})
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}

	// drain turns nil after it fires so the select below degenerates to a
	// plain channel read: the drain signal cancels the remaining members
	// once, then the loop finishes writing whatever completes.
	drain := s.drainCh

	if wantsNDJSON(r) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		fl, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		writable := true
		first := true
		for {
			select {
			case item, ok := <-ch:
				if !ok {
					return
				}
				if !writable {
					continue // client gone: drain the channel, write nothing
				}
				if err := enc.Encode(item); err != nil { // Encode appends the newline framing
					// The client disconnected mid-stream: cancel the
					// remaining members and keep draining the channel (it
					// is buffered for the whole batch, so producers finish
					// regardless) without writing.
					bcancel()
					writable = false
					continue
				}
				if fl != nil {
					fl.Flush()
				}
				if first {
					// Time-to-first-byte of the stream: how long the
					// client waited before pipelining could begin.
					s.streamTTFB.Observe(time.Since(t0))
					first = false
				}
			case <-drain:
				drain = nil
				bcancel()
			}
		}
	}

	items := make([]BatchItem, n)
	for got := 0; got < n; {
		select {
		case item := <-ch:
			items[item.Index] = item
			got++
		case <-drain:
			drain = nil
			bcancel()
		}
	}
	writeJSON(w, http.StatusOK, BatchResponse{Items: items})
}

// canonScratch is the fused decode path's per-request scratch: a
// reusable canonicalizer, the cache-key document buffer and — for
// /v1/schedule — the request body the canonicalizer's name spans point
// into. Pooled, so warm hits allocate no per-request decode state.
type canonScratch struct {
	c    taskgraph.Canonicalizer
	buf  []byte
	body []byte
}

var canonPool = sync.Pool{New: func() any { return new(canonScratch) }}

// maxPooledBody caps the body buffer a pooled scratch keeps: one huge
// request must not pin its buffer in the pool for every later one.
const maxPooledBody = 1 << 20

// putScratch returns sc to canonPool, dropping the canonicalizer's
// reference to the request and a body buffer over maxPooledBody.
func putScratch(sc *canonScratch) {
	sc.c.Reset()
	if cap(sc.body) > maxPooledBody {
		sc.body = nil
	}
	canonPool.Put(sc)
}

// process turns one wire request into marshaled result bytes: validate,
// maxTopoMemo bounds the parsed-topology memo; real deployments use a
// handful of specs, so overflow means someone is enumerating them.
const maxTopoMemo = 64

// parseTopo resolves a topology spec through the per-server memo: the
// spec's first appearance pays the full parse (routing tables included),
// every later request shares the immutable parsed value.
func (s *Server) parseTopo(spec string) (*topology.Topology, error) {
	s.topoMu.RLock()
	topo, ok := s.topoBySpec[spec]
	s.topoMu.RUnlock()
	if ok {
		return topo, nil
	}
	topo, err := cliutil.ParseTopology(spec)
	if err != nil {
		return nil, err
	}
	s.topoMu.Lock()
	if have, ok := s.topoBySpec[spec]; ok {
		topo = have // lost a parse race; converge on one shared value
	} else if len(s.topoBySpec) < maxTopoMemo {
		s.topoBySpec[spec] = topo
	}
	s.topoMu.Unlock()
	return topo, nil
}

// consult the content-addressed cache tiers fastest-first (memory, then
// the ladder's rungs — each hit promoted into the tiers above it),
// collapse onto an identical in-flight solve when one exists
// (singleflight), and otherwise run the named solver on the worker pool
// and store the bytes in every tier. The string reports how the body was
// obtained: "hit", a rung's name ("disk", "remote"), "miss" or
// "coalesced". defLane is the QoS lane used when the request names none:
// interactive for single schedule calls, batch for batch members.
//
// The graph arrives as raw bytes, or already read (req.scanned), and is
// decoded by the fused canonicalizer: one pass yields the canonical form and fingerprint the
// cache key hashes, so a warm hit is bounded by that pass plus the
// response write — no *Graph is built and no canonical re-marshal
// happens. The solver-ready Graph materializes inside solveGraph,
// which only runs on a genuine miss (or an explicit nocache solve).
func (s *Server) process(ctx context.Context, req *rawRequest, defLane engine.Lane, meta *procMeta) ([]byte, string, error) {
	canonStart := time.Now()
	if meta == nil {
		meta = &procMeta{}
	}
	tr := obs.FromContext(ctx)
	// Graph errors precede the other validations, exactly as they did
	// when the body decode materialized (and validated) the graph before
	// process ever ran — and they carry the same messages. Acyclicity is
	// the one check the canonicalizer defers to materialization: a cyclic
	// graph misses every tier (nothing cyclic was ever cached) and is
	// rejected by solveGraph with the unchanged wrapped message.
	scratch := req.scanned
	var err error
	switch {
	case scratch != nil:
		err = scratch.c.Canonicalize()
	case len(req.Graph) == 0 || string(req.Graph) == "null":
		return nil, "", badRequest("missing graph")
	default:
		scratch = canonPool.Get().(*canonScratch)
		defer putScratch(scratch)
		err = scratch.c.Parse(req.Graph)
	}
	if err != nil {
		return nil, "", badRequest("decode request: %v", err)
	}
	if req.Topo == "" {
		return nil, "", badRequest("missing topo spec")
	}
	lane := defLane
	if req.Lane != "" {
		if lane, err = engine.ParseLane(req.Lane); err != nil {
			return nil, "", badRequest("%v", err)
		}
	}
	if req.MemberTimeoutMS < 0 {
		return nil, "", badRequest("member_timeout_ms %d is negative", req.MemberTimeoutMS)
	}
	topo, err := s.parseTopo(req.Topo)
	if err != nil {
		return nil, "", badRequest("%v", err)
	}
	comm := req.Comm.apply(topology.DefaultCommParams())
	if req.NoComm {
		comm = comm.NoComm()
	}
	if err := comm.Validate(); err != nil {
		return nil, "", badRequest("%v", err)
	}

	solverName := req.Solver
	if solverName == "" {
		solverName = s.cfg.DefaultSolver
	}
	slv, err := solver.Get(solverName)
	if err != nil {
		return nil, "", badRequest("%v", err)
	}

	saOpt := core.DefaultOptions()
	saOpt.Seed = req.Seed
	if req.Wb != nil {
		saOpt.Wb = *req.Wb
		saOpt.Wc = 1 - *req.Wb
	}
	if req.Restarts < 0 || req.Restarts > maxRestarts {
		return nil, "", badRequest("restarts %d out of range [0,%d]", req.Restarts, maxRestarts)
	}
	saOpt.Restarts = req.Restarts
	saOpt.Cooperative = req.Cooperative
	saOpt.Tempering = req.Tempering
	if err := saOpt.Validate(); err != nil {
		return nil, "", badRequest("%v", err)
	}

	kopt := makeKeyOptions(topo.Name(), comm, slv.Name(), saOpt, req.TimeoutMS, req.MemberTimeoutMS)
	key, buf, err := fusedKey(&scratch.c, scratch.buf, kopt)
	scratch.buf = buf
	if err != nil {
		return nil, "", fmt.Errorf("service: cache key: %w", err)
	}
	meta.key = key

	// solveGraph materializes the graph, checks the solver request and
	// runs the solver with SA options sa, storing the body under addr —
	// the only path that pays for a *Graph. It runs at most once per
	// process call (cold or warm-started; as flight leader, as a waiter
	// retrying a leader's context death, or for a nocache solve), always
	// within this frame, so borrowing the pooled canonicalizer is safe.
	solveGraph := func(ctx context.Context, sa core.Options, addr string) ([]byte, error) {
		start := time.Now()
		g, err := scratch.c.Graph()
		if err != nil {
			return nil, badRequest("decode request: %v", err)
		}
		sreq := solver.Request{Graph: g, Topo: topo, Comm: comm, SA: sa}
		sreq.Portfolio.MemberTimeout = time.Duration(req.MemberTimeoutMS) * time.Millisecond
		if err := sreq.Validate(); err != nil {
			return nil, badRequest("%v", err)
		}
		// SA solves feed the similarity index (when cacheable): the entry
		// carries the sketch, the canonical graph bytes and the cold option
		// block, everything a later near-miss or delta edit needs to seed
		// from this result.
		var idx *simEntry
		if s.sim != nil && slv.Name() == "sa" && !req.NoCache {
			idx = &simEntry{Topo: kopt.Topo, Spec: req.Topo, Sketch: scratch.c.Sketch(),
				Graph: scratch.c.AppendCanonicalJSON(nil), Opt: kopt,
				NumTasks: scratch.c.NumTasks(), Cold: key}
		}
		obs.FromContext(ctx).Observe(obs.StageMaterialize, start, time.Since(start))
		return s.solve(ctx, slv, sreq, req.TimeoutMS, kopt.Topo, addr, lane, idx)
	}
	if tr != nil {
		// Notes first, so the stage that follows starts as soon as this
		// one is recorded.
		tr.Annotate("solver", slv.Name())
		tr.Annotate("lane", lane.String())
		notes := []obs.KV{{Key: "solver", Val: slv.Name()}, {Key: "lane", Val: lane.String()}}
		tr.Observe(obs.StageCanonicalize, canonStart, time.Since(canonStart), notes...)
	}
	if !req.NoCache {
		// Singleflight: the in-flight check and the cache consult happen
		// under one lock, ordered against the leader's cache.Put (inside
		// solve) happening before its inflight delete (deferred): a
		// request that finds no flight either hits the filled cache or
		// becomes the new leader — it can never re-solve a key whose
		// leader just finished. NoCache requests opt out — they
		// explicitly asked for their own solve.
		memStart := time.Now()
		s.mu.Lock()
		if f, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			tr.Observe(obs.StageMemTier, memStart, time.Since(memStart))
			sfStart := time.Now()
			select {
			case <-f.done:
				tr.Observe(obs.StageSingleflight, sfStart, time.Since(sfStart))
				if f.err != nil {
					if isLeaderContextError(f.err) {
						// The leader died of its own context (client
						// disconnect, per-request deadline) — a verdict
						// about the leader's connection, not this
						// waiter's. Solve independently under our own
						// context instead of propagating it.
						body, err := solveGraph(ctx, saOpt, key)
						return body, "miss", err
					}
					return nil, "", f.err
				}
				// The coalesced ride is counted by the handler's account()
				// on the successful replay, never here: a waiter that falls
				// through to its own solve, inherits the leader's failure,
				// or times out below must not contribute one, or the
				// conservation law (coalesced rides are answered items)
				// would overcount.
				if f.addr != "" {
					meta.key = f.addr
				}
				meta.warm, meta.warmDist = f.warm, f.warmDist
				return f.body, "coalesced", nil
			case <-ctx.Done():
				return nil, "", &httpError{status: http.StatusServiceUnavailable,
					msg: fmt.Sprintf("service: coalesced wait: %v", ctx.Err())}
			}
		}
		if body, ok := s.cache.Get(key); ok {
			s.mu.Unlock()
			tr.Observe(obs.StageMemTier, memStart, time.Since(memStart))
			return body, "hit", nil
		}
		// err is pre-set so that a leader that dies without filling the
		// flight (e.g. a panic unwinding through the handler) fails its
		// waiters instead of handing them an empty 200.
		f := &flight{done: make(chan struct{}),
			err: &httpError{status: http.StatusInternalServerError, msg: "service: in-flight solve abandoned"}}
		s.inflight[key] = f
		s.mu.Unlock()
		tr.Observe(obs.StageMemTier, memStart, time.Since(memStart))
		defer func() {
			s.mu.Lock()
			delete(s.inflight, key)
			s.mu.Unlock()
			close(f.done)
		}()
		// The ladder is consulted as the flight leader, outside the server
		// lock (a rung reads a file or makes a network round trip):
		// concurrent identical requests coalesce onto one consult exactly
		// as they would onto one solve.
		if body, tag, ok := s.lookup(key, tr, false); ok {
			f.body, f.err, f.addr = body, nil, key
			return body, tag, nil
		}
		// Every exact tier missed: before paying for a cold solve, try to
		// warm-start from a cached near-miss (or the delta endpoint's
		// explicit base). The warm path answers the flight too, so
		// coalesced waiters replay the warm bytes and headers.
		if body, tag, handled, werr := s.warmAttempt(ctx, scratch, kopt, key,
			meta, topo, saOpt, slv, solveGraph); handled {
			f.body, f.err = body, werr
			f.addr, f.warm, f.warmDist = meta.key, meta.warm, meta.warmDist
			return body, tag, werr
		}
		body, err := solveGraph(ctx, saOpt, key)
		f.body, f.err, f.addr = body, err, key
		return body, "miss", err
	}
	body, err := solveGraph(ctx, saOpt, key)
	return body, "miss", err
}

// rung is one tier of the cache ladder below memory.
type rung struct {
	name  string // "disk" or "remote": the X-DTServe-Cache tag and /statsz key
	stage string // trace stage of a read
	local bool   // in-process, so the warm path may consult it
	tier  Tier
	read  *obs.Histogram // Get latency, hit or miss
	hits  uint64         // items answered from this rung; guarded by Server.mu
}

// ladder lists the rungs in consult order: the persistent disk tier, then
// the fleet-shared remote tier.
var ladder = [...]struct {
	name, stage string
	local       bool
}{
	{"disk", obs.StageDiskTier, true},
	{"remote", obs.StageRemoteTier, false},
}

// lookup walks the rungs in ladder order. A hit at rung i is promoted into
// the memory tier and every rung above i, and is tagged with the rung's
// name. The request path times each read into the rung's histogram and
// trace stage; the warm path (warm) consults the local rungs only,
// untimed, because its reads run inside the warm_seed stage and must not
// add a network round trip to a solve.
func (s *Server) lookup(key string, tr *obs.Trace, warm bool) ([]byte, string, bool) {
	for i, r := range s.rungs {
		if warm && !r.local {
			continue
		}
		start := time.Now()
		body, ok := r.tier.Get(key)
		if !warm {
			// Observed through the WrapTier seam, so injected read faults
			// show up in the read-latency distribution like real ones.
			dur := time.Since(start)
			r.read.Observe(dur)
			tr.Observe(r.stage, start, dur)
		}
		if ok {
			s.cache.Put(key, body)
			for _, above := range s.rungs[:i] {
				above.tier.Put(key, body)
			}
			return body, r.name, true
		}
	}
	return nil, "", false
}

// isLeaderContextError reports whether a flight failed because the
// leader's own context ended: a 504 (solve interrupted by its deadline),
// a 499 (the leader's client went away mid-solve), or a 503 (never got a
// worker before its context expired). Waiters retry those under their own
// contexts. A 429 is deliberately not retried: admission control shed the
// key because the service is overloaded, and waiters re-solving would
// manufacture exactly the load the shed refused.
func isLeaderContextError(err error) bool {
	var he *httpError
	if !errors.As(err, &he) {
		return false
	}
	return he.status == http.StatusGatewayTimeout || he.status == statusClientClosedRequest ||
		(he.status == http.StatusServiceUnavailable && he.retryAfter == 0)
}

// solve runs one cold request on the engine (whose worker hands the
// solver its owned simulator arena and pooled scheduler), marshals the
// wire result, records the solve latency, and stores cacheable bodies.
// idx, when non-nil, is the similarity-index entry to register when the
// body is cached (the entry's Key is stamped with the storage key here,
// so warm solves index under their warm address).
func (s *Server) solve(ctx context.Context, slv solver.Solver, sreq solver.Request,
	timeoutMS int, topoName, key string, lane engine.Lane, idx *simEntry) ([]byte, error) {

	deadlined := false
	if timeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
		defer cancel()
		deadlined = true
	} else if s.cfg.DefaultTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultTimeout)
		defer cancel()
		deadlined = true
	}

	start := time.Now()
	res, err := s.eng.Solve(ctx, engine.Job{Solver: slv, Req: sreq, Lane: lane})
	if err != nil {
		var ov *engine.OverloadError
		if errors.As(err, &ov) {
			// Admission control refused the job: a structured 429 telling
			// the client when to come back. Not a solver outcome — the
			// solver never ran and the shed has its own counter.
			s.mu.Lock()
			s.counts.Shed++
			s.mu.Unlock()
			return nil, &httpError{status: http.StatusTooManyRequests,
				msg: "service: " + err.Error(), retryAfter: ov.RetryAfter}
		}
		s.mu.Lock()
		s.counts.SolveErrors[slv.Name()]++
		// A cancelled caller (client disconnect, batch drain) is a
		// cancellation wherever it surfaced — still queued or mid-solve.
		// Deadline expiries are deliberately not counted here: the request
		// ran out its budget, nobody abandoned it.
		if errors.Is(err, context.Canceled) {
			s.counts.Cancelled++
		}
		s.mu.Unlock()
		if errors.Is(err, engine.ErrQueueTimeout) || errors.Is(err, engine.ErrClosed) {
			// The job never ran: a capacity verdict, not a solve verdict.
			return nil, &httpError{status: http.StatusServiceUnavailable, msg: "service: " + err.Error()}
		}
		status := http.StatusUnprocessableEntity
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		} else if errors.Is(err, context.Canceled) {
			status = statusClientClosedRequest
		}
		return nil, &httpError{status: status, msg: err.Error()}
	}
	marshalStart := time.Now()
	wire, err := ResultFromSim(res, sreq.Graph, topoName)
	if err != nil {
		return nil, &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return nil, &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	if tr := obs.FromContext(ctx); tr != nil {
		tr.Observe(obs.StageMarshal, marshalStart, time.Since(marshalStart))
	}

	// A timing-dependent result — a portfolio raced against the request
	// deadline, or one resolved by lower-bound early cancellation or
	// member pruning (Result.Raced) — depends on which members beat the
	// clock, not just on the payload. Caching it would replay a timing
	// fact to every future caller of the key, so only deterministic
	// results are memoized.
	if !(deadlined && slv.Name() == "portfolio") && !res.Raced {
		s.cache.Put(key, body)
		// Persist through every rung's write-behind queue, never on this
		// hot path. Publishing to the shared daemon is what turns this
		// replica's cold solve into every other replica's "remote" hit.
		for _, r := range s.rungs {
			r.tier.Put(key, body)
		}
		// Index cached bodies only: a similarity entry whose body is in no
		// tier can seed nothing.
		if idx != nil {
			idx.Key = key
			s.sim.Add(*idx)
		}
	}
	// Observed only for completed solves, so queue-timeout artifacts never
	// pollute the latency distribution. The solves counter itself moved
	// into account(): it increments with the item count, in one critical
	// section, so the conservation law holds on any snapshot.
	s.solveLatency.Observe(time.Since(start))
	s.mu.Lock()
	s.counts.PortfolioPruned += uint64(res.Pruned)
	s.counts.RestartsAbandoned += uint64(res.RestartsAbandoned)
	s.counts.AnnealMoves += uint64(res.AnnealMoves)
	s.counts.AnnealAccepted += uint64(res.AnnealAccepted)
	s.counts.PortfolioBoundUpdates += uint64(res.BoundUpdates)
	if sreq.SA.Warm != nil {
		s.counts.WarmHits++
		s.counts.WarmEpochsSaved += uint64(res.WarmEpochsSaved)
	}
	s.counts.BySolver[slv.Name()]++
	for _, m := range res.Members {
		s.counts.MemberOutcomes[m.Member+"|"+m.Outcome]++
	}
	s.mu.Unlock()
	return body, nil
}
