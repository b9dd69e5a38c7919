// Package service is the HTTP/JSON scheduling service: it accepts
// taskgraph + topology + communication parameters on the wire, routes
// each request through the solver registry on the shared solve engine
// (internal/engine — worker-owned simulator arenas and pooled SA
// schedulers), and memoizes completed results in a tiered
// content-addressed cache — an in-memory LRU backed by an optional
// persistent disk tier and an optional fleet-shared remote tier
// (dtcached), so a restarted server replays its warm set byte-identically
// without re-solving and a replica fleet shares one warm set.
//
// Endpoints:
//
//	POST /v1/schedule        solve one request
//	POST /v1/schedule/batch  solve many requests, pipelined on the engine;
//	                         with "Accept: application/x-ndjson" each item
//	                         streams out the moment its solve completes
//	GET  /v1/solvers         list the registered solvers
//	GET  /healthz            liveness probe
//	GET  /statsz             request, cache, engine and per-solver counters
//	GET  /metrics            the same in Prometheus exposition format
//
// Responses for identical payloads are byte-identical (seeded determinism
// end to end); cache status travels in the X-DTServe-Cache header — or
// the per-item "cache" field of batch items — so a warm hit does not
// perturb the body. The one exception is a portfolio request raced
// against a clock (the request deadline, a member deadline, lower-bound
// early cancellation, or incumbent-bound pruning) — which members beat
// the clock is a timing fact, not a payload fact — so those results are
// served but never cached.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/machsim"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// ScheduleRequest is the wire form of one scheduling problem.
type ScheduleRequest struct {
	// Graph is the taskgraph in the canonical {name, tasks, edges} JSON
	// encoding of internal/taskgraph. Decoding validates it (dense IDs,
	// acyclicity, non-negative loads and volumes).
	Graph *taskgraph.Graph `json:"graph"`
	// Topo is a topology spec such as "hypercube:3" or "mesh:3x4".
	Topo string `json:"topo"`
	// Comm overrides individual communication parameters; absent fields
	// keep the paper defaults.
	Comm *CommOverride `json:"comm,omitempty"`
	// NoComm disables communication costs (comm scale 0).
	NoComm bool `json:"nocomm,omitempty"`
	// Solver names the registry entry to use; empty means the server's
	// default. "portfolio" races solvers under the request deadline.
	Solver string `json:"solver,omitempty"`
	// Seed drives all stochastic choices; equal seeds give equal results.
	Seed int64 `json:"seed,omitempty"`
	// Wb is the SA balance weight (wc = 1 - wb); nil means 0.5.
	Wb *float64 `json:"wb,omitempty"`
	// Restarts anneals each packet this many times (0/1 = single run).
	Restarts int `json:"restarts,omitempty"`
	// Cooperative makes the SA restarts share one incumbent best cost:
	// restarts publish improvements at stage barriers and dominated
	// restarts are abandoned early. Winner-preserving and deterministic
	// for a fixed seed, so cooperative results cache like plain ones.
	Cooperative bool `json:"cooperative,omitempty"`
	// Tempering runs the restarts as a parallel-tempering ladder
	// (replica exchange at stage barriers) instead of independent
	// chains. Deterministic per seed.
	Tempering bool `json:"tempering,omitempty"`
	// TimeoutMS bounds the solve wall-clock; 0 means the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MemberTimeoutMS bounds each portfolio member's solve individually
	// (solver.PortfolioOptions.MemberTimeout); 0 means no per-member
	// deadline, negative is a 400. Only the "portfolio" solver reads it.
	MemberTimeoutMS int `json:"member_timeout_ms,omitempty"`
	// Lane names the QoS lane: "interactive" (the default for single
	// schedule calls) or "batch" (the default for batch members). The
	// interactive lane wins the weighted dequeue under contention; the
	// batch lane is shed first under overload. Any other value is a 400.
	Lane string `json:"lane,omitempty"`
	// NoCache bypasses the result cache (the result is still stored).
	NoCache bool `json:"nocache,omitempty"`
	// Trace requests a stage-timing breakdown: the response envelope gains
	// a "trace" block (span ID, ordered stages with start offsets and
	// durations, annotations). Equivalent to ?trace=1 on the URL. Trace is
	// observability, not semantics: it is excluded from the cache key, the
	// trace block is spliced per-response, and traced bytes are never what
	// the cache stores.
	Trace bool `json:"trace,omitempty"`
}

// CommOverride overrides communication parameters field by field. Fields
// are pointers so an absent field keeps its default — crucially, a client
// overriding only the bandwidth does not silently zero Scale (which would
// disable communication costs altogether).
type CommOverride struct {
	Bandwidth *float64 `json:"bandwidth,omitempty"`
	Sigma     *float64 `json:"sigma,omitempty"`
	Tau       *float64 `json:"tau,omitempty"`
	Scale     *float64 `json:"scale,omitempty"`
}

// apply overlays the set fields onto p and returns the result.
func (o *CommOverride) apply(p topology.CommParams) topology.CommParams {
	if o == nil {
		return p
	}
	if o.Bandwidth != nil {
		p.Bandwidth = *o.Bandwidth
	}
	if o.Sigma != nil {
		p.Sigma = *o.Sigma
	}
	if o.Tau != nil {
		p.Tau = *o.Tau
	}
	if o.Scale != nil {
		p.Scale = *o.Scale
	}
	return p
}

// BatchRequest is the wire form of POST /v1/schedule/batch.
type BatchRequest struct {
	Requests []ScheduleRequest `json:"requests"`
}

// rawRequest is the handler-side decode form of ScheduleRequest: the
// graph stays as raw bytes so the fused path (taskgraph.Canonicalizer)
// can build the canonical form and hash the cache key in one pass over
// them, materializing a *Graph only on a cache miss. Field set and tags
// must mirror ScheduleRequest exactly.
type rawRequest struct {
	Graph           json.RawMessage `json:"graph"`
	Topo            string          `json:"topo"`
	Comm            *CommOverride   `json:"comm,omitempty"`
	NoComm          bool            `json:"nocomm,omitempty"`
	Solver          string          `json:"solver,omitempty"`
	Seed            int64           `json:"seed,omitempty"`
	Wb              *float64        `json:"wb,omitempty"`
	Restarts        int             `json:"restarts,omitempty"`
	Cooperative     bool            `json:"cooperative,omitempty"`
	Tempering       bool            `json:"tempering,omitempty"`
	TimeoutMS       int             `json:"timeout_ms,omitempty"`
	MemberTimeoutMS int             `json:"member_timeout_ms,omitempty"`
	Lane            string          `json:"lane,omitempty"`
	NoCache         bool            `json:"nocache,omitempty"`
	Trace           bool            `json:"trace,omitempty"`

	// scanned, when set, holds a graph already read (syntax only) — by
	// the one-pass wire scanner, or the delta handler's edited base — and
	// Graph is not consulted: process checks and canonicalizes the
	// scanned graph instead of parsing Graph.
	scanned *canonScratch
}

// requestFields and commFields are the wire keys of rawRequest and
// CommOverride, in the order of their struct fields.
var (
	requestFields = []string{"graph", "topo", "comm", "nocomm", "solver", "seed", "wb", "restarts",
		"cooperative", "tempering", "timeout_ms", "member_timeout_ms", "lane", "nocache", "trace"}
	commFields = []string{"bandwidth", "sigma", "tau", "scale"}
)

// scanRequest is the one-pass decode of a /v1/schedule body: a single
// taskgraph.Scanner pass fills req and hands the "graph" object to c,
// so the graph bytes are read once. Like json.Decoder.Decode it stops
// after the first value and ignores whatever follows. It returns false
// when the body leaves the scanner's subset (see taskgraph.Scanner; a
// "graph" that is neither an object nor null also declines), and the
// caller then decodes the same bytes with encoding/json, so every 400 is
// still worded by encoding/json. On true, req.Graph is the graph value's
// raw bytes within body, as json.RawMessage would hold them, and an
// object graph still awaits c.Canonicalize.
func scanRequest(body []byte, req *rawRequest, c *taskgraph.Canonicalizer) bool {
	sc := taskgraph.NewScanner(body)
	var seen uint32
	sc.Begin('{')
	for i := 0; sc.More('}', i); i++ {
		switch sc.Field(&seen, requestFields) {
		case "graph":
			start := sc.Pos()
			if !sc.Null() {
				c.Scan(&sc)
			}
			req.Graph = body[start:sc.Pos()]
		case "topo":
			req.Topo = string(sc.Str())
		case "comm":
			if !sc.Null() {
				req.Comm = scanComm(&sc)
			}
		case "nocomm":
			req.NoComm = sc.Bool()
		case "solver":
			req.Solver = string(sc.Str())
		case "seed":
			req.Seed = sc.Int64()
		case "wb":
			wb := sc.Float()
			req.Wb = &wb
		case "restarts":
			req.Restarts = sc.Int()
		case "cooperative":
			req.Cooperative = sc.Bool()
		case "tempering":
			req.Tempering = sc.Bool()
		case "timeout_ms":
			req.TimeoutMS = sc.Int()
		case "member_timeout_ms":
			req.MemberTimeoutMS = sc.Int()
		case "lane":
			req.Lane = string(sc.Str())
		case "nocache":
			req.NoCache = sc.Bool()
		case "trace":
			req.Trace = sc.Bool()
		}
	}
	return sc.OK()
}

// scanComm reads a CommOverride object.
func scanComm(sc *taskgraph.Scanner) *CommOverride {
	o := new(CommOverride)
	var seen uint32
	sc.Begin('{')
	for i := 0; sc.More('}', i); i++ {
		field := sc.Field(&seen, commFields)
		v := sc.Float()
		switch field {
		case "bandwidth":
			o.Bandwidth = &v
		case "sigma":
			o.Sigma = &v
		case "tau":
			o.Tau = &v
		case "scale":
			o.Scale = &v
		}
	}
	return o
}

// rawBatch is the handler-side decode form of BatchRequest.
type rawBatch struct {
	Requests []rawRequest `json:"requests"`
}

// BatchItem is one element of a batch response: exactly one of Result or
// Error is set. Index names the request the item answers, and Cache
// reports how the body was obtained ("hit", "disk", "remote",
// "coalesced" or "miss") — the per-item analogue of the X-DTServe-Cache
// header. In the
// buffered BatchResponse the items are already request-ordered; in the
// NDJSON stream they arrive in completion order and Index is how clients
// reassemble them.
type BatchItem struct {
	Index  int             `json:"index"`
	Cache  string          `json:"cache,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// BatchResponse is the wire form of a buffered batch reply, item i
// answering request i. With "Accept: application/x-ndjson" the same items
// are instead streamed one JSON object per line, each written as its
// solve completes.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
}

// ErrorResponse is the structured error body of every non-2xx reply. A
// 429 (admission control shed the request) additionally carries
// RetryAfterMS, mirroring the Retry-After header at millisecond
// resolution.
type ErrorResponse struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Result is the wire form of a completed solve — the same schema the
// dtsched CLI emits with --json, so CLI and server outputs are diffable.
type Result struct {
	Solver         string           `json:"solver"`
	Program        string           `json:"program"`
	Topology       string           `json:"topology"`
	Makespan       float64          `json:"makespan"`
	SequentialTime float64          `json:"t1"`
	Speedup        float64          `json:"speedup"`
	Messages       int              `json:"messages"`
	TransferTime   float64          `json:"transfer_time"`
	OverheadTime   float64          `json:"overhead_time"`
	Epochs         int              `json:"epochs"`
	Forced         int              `json:"forced"`
	Utilization    float64          `json:"utilization"`
	Schedule       []schedule.Entry `json:"schedule"`
}

// ResultFromSim converts a completed simulation into the wire Result.
func ResultFromSim(res *machsim.Result, g *taskgraph.Graph, topoName string) (*Result, error) {
	sched, err := schedule.FromResult(res)
	if err != nil {
		return nil, err
	}
	return &Result{
		Solver:         res.Policy,
		Program:        g.Name(),
		Topology:       topoName,
		Makespan:       res.Makespan,
		SequentialTime: res.SequentialTime,
		Speedup:        res.Speedup,
		Messages:       res.Messages,
		TransferTime:   res.TransferTime,
		OverheadTime:   res.OverheadTime,
		Epochs:         len(res.Epochs),
		Forced:         res.Forced,
		Utilization:    res.Utilization(),
		Schedule:       sched.Entries,
	}, nil
}

// keyOptions is the option block of the cache-key document: every knob
// that can change a result's bytes, in one fixed field order shared by
// the fused streaming path and the cacheKey test oracle so both derive
// identical keys.
// The cooperative/tempering flags sit last with omitempty, so every key
// minted before they existed is byte-stable.
type keyOptions struct {
	Topo          string              `json:"topo"`
	Comm          topology.CommParams `json:"comm"`
	Solver        string              `json:"solver"`
	Seed          int64               `json:"seed"`
	Wb            float64             `json:"wb"`
	Wc            float64             `json:"wc"`
	Restarts      int                 `json:"restarts"`
	Timeout       int                 `json:"timeout_ms"`
	MemberTimeout int                 `json:"member_timeout_ms,omitempty"`
	Cooperative   bool                `json:"cooperative,omitempty"`
	Tempering     bool                `json:"tempering,omitempty"`
	// WarmSeed separates warm-started results from cold ones: a warm solve
	// anneals from a projected cached assignment under a shortened cooling
	// schedule, so its bytes legitimately differ from the cold solve of the
	// same request. The field holds the seeding base address plus the sketch
	// distance; cold keys leave it empty and stay byte-stable.
	WarmSeed string `json:"warm_seed,omitempty"`
}

func makeKeyOptions(topoName string, comm topology.CommParams,
	solverName string, sa core.Options, timeoutMS, memberTimeoutMS int) keyOptions {
	return keyOptions{
		Topo:          topoName,
		Comm:          comm,
		Solver:        solverName,
		Seed:          sa.Seed,
		Wb:            sa.Wb,
		Wc:            sa.Wc,
		Restarts:      sa.Restarts,
		Timeout:       timeoutMS,
		MemberTimeout: memberTimeoutMS,
		Cooperative:   sa.Cooperative,
		Tempering:     sa.Tempering,
	}
}

// fusedKey derives the content address of a request: a SHA-256 over the
// canonical graph encoding plus every option that can change the result —
// including the timeout, so a result degraded by a tight deadline is
// never replayed to a request with a generous one. Map/insertion order
// never leaks into the key, so equal problems always hit the same cache
// line. The QoS lane is deliberately not part of the key: the lane
// decides when a job runs, never what it computes, so identical problems
// submitted on different lanes share one cache line (and coalesce onto
// one solve).
//
// The key is derived from a parsed Canonicalizer without materializing a
// *Graph or re-marshaling it. The canonical graph bytes are spliced
// verbatim into the key document — they are already compact,
// HTML-escaped encoding/json output, which is exactly how json.Marshal
// embeds a RawMessage — so the hashed bytes are byte-identical to
// marshaling the decoded graph's document. buf is the caller's scratch
// (reused across requests); the possibly-grown slice is returned
// alongside the key.
func fusedKey(c *taskgraph.Canonicalizer, buf []byte, opt keyOptions) (string, []byte, error) {
	tail, err := json.Marshal(opt)
	if err != nil {
		return "", buf, err
	}
	buf = append(buf[:0], `{"graph":`...)
	buf = c.AppendCanonicalJSON(buf)
	buf = append(buf, ',')
	buf = append(buf, tail[1:]...) // tail is "{...}": splice its fields after the graph
	sum := sha256.Sum256(buf)
	return fmt.Sprintf("%016x-%s", c.Fingerprint(), hex.EncodeToString(sum[:16])), buf, nil
}
