package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/machsim"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/taskgraph"
)

// traceWindow is how many requests from the start of a workload the
// traced pass sends with "trace": true; replayMax caps the cold solves it
// replays through the library.
const (
	traceWindow = 300
	replayMax   = 300
)

// span is one timed interval of the traced pass. The spans of one request
// share its ID.
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request"`
	Parent  string `json:"parent,omitempty"`
	Start   int64  `json:"start_ns"` // since the traced pass began
	End     int64  `json:"end_ns"`
	// Calls is set on an aggregate span: the summed duration of that many
	// calls, laid out from its parent's start.
	Calls int `json:"calls,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTime is a span's duration minus the part of it that its children
// cover.
func selfTime(parent span, children []span) int64 {
	var iv [][2]int64
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	covered, reach := int64(0), parent.Start
	for _, v := range iv {
		lo := max(v[0], reach)
		if v[1] > lo {
			covered += v[1] - lo
			reach = v[1]
		}
	}
	return parent.dur() - covered
}

// traced runs the traced pass: the first traceWindow requests with
// "trace": true, then untraced requests for the rest of the run to price
// the tracing, then a replay of the cold solves through the layers'
// public functions. It reports the per-layer metrics.
func (e *env) traced(cfg config, seeded []sample, out io.Writer) (*result, error) {
	t0 := time.Now()
	before, err := e.c.stats()
	if err != nil {
		return nil, err
	}
	winPh := e.phase(config{requests: traceWindow, trace: true}, 0, true)
	if cfg.requests > 0 {
		winPh = e.phase(cfg, 0, true)
	}
	win := e.run(cfg.seed, winPh)
	length := time.Duration(cfg.seconds * float64(time.Second))
	rest := e.run(cfg.seed, e.phase(cfg, max(length-time.Since(t0), length/2), false))
	after, err := e.c.stats()
	if err != nil {
		return nil, err
	}
	verr := e.w.verify(before, after)

	window := win.all()
	attempted, failed := 0, 0
	var lag, winLat, restLat []float64
	for _, ph := range []*phaseResult{win, rest} {
		ph.each(func(s *sample) {
			attempted++
			lag = append(lag, us(s.x.lag))
			switch {
			case s.err() != nil:
				failed++
			case ph == win:
				winLat = append(winLat, ms(s.lat))
			default:
				restLat = append(restLat, ms(s.lat))
			}
		})
	}
	r := newReport(out)
	p99, beyond := percentile(sortedOf(restLat), 0.99)
	r.set("latency_p99_ms", p99, "ms  untraced requests, n=%d, %d beyond", len(restLat), beyond)
	spans := stageMetrics(r, t0, window, seeded)
	items := float64(after.Items - before.Items)
	solves := float64(after.Solves - before.Solves)
	r.set("service.mem_hit_ratio", ratio(float64(after.Cache.Hits-before.Cache.Hits), items), "ratio  of %.0f answers", items)
	r.set("service.cache_evictions", float64(after.Cache.Evictions-before.Cache.Evictions), "count")
	r.set("service.warm_ratio", ratio(float64(after.WarmHits-before.WarmHits), solves), "ratio  of %.0f solves", solves)

	replaySpans, rerr := replay(r, t0, seeded, window)
	spans = append(spans, replaySpans...)
	var validate []float64
	for _, d := range e.b.validate { // every checking goroutine has finished
		validate = append(validate, us(d))
	}
	r.set("schedule.validate_us", median(validate), "us  p50 of %d checks", len(validate))

	lagP99, lagBeyond := percentile(sortedOf(lag), 0.99)
	r.set("bench.gen_lag_p99_us", lagP99, "us  n=%d, %d beyond", len(lag), lagBeyond)
	r.set("bench.trace_overhead_pct", 100*(mean(winLat)/mean(restLat)-1),
		"%%  mean latency of %d traced vs %d untraced requests", len(winLat), len(restLat))

	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, e.spec.name, spans); err != nil {
			return nil, err
		}
	}
	r.failures(win, rest)
	for _, err := range []error{verr, rerr} {
		if err != nil {
			r.note("failure: %v", err)
		}
	}
	return r.result(perLayer, attempted, failed, failed == 0 && verr == nil && rerr == nil)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stageMetrics reports the layer split the server's trace blocks show and
// returns each window request as a client span with the server's
// top-level stages as children. Per-request shares come from the window;
// per-solve numbers come from every traced solve, setup included, so that
// a workload whose timed requests never solve still prices its solves.
// Traced requests are numbered setup first, as replay numbers them.
func stageMetrics(r *report, t0 time.Time, window, seeded []sample) []span {
	var spans []span
	var self []float64
	stageUS := map[string][]float64{}
	stageNS := map[string]int64{}
	var totalNS, coveredNS int64
	firstID := len(traces(seeded))
	for i, s := range traces(window) {
		id := firstID + i
		td := s.x.ans.trace
		req := span{Name: "request", Request: id, Start: s.x.sent.Sub(t0).Nanoseconds(), End: s.x.done.Sub(t0).Nanoseconds()}
		spans = append(spans, req)
		self = append(self, float64(req.dur()-td.TotalNS)/1e3)
		totalNS += td.TotalNS
		for _, st := range td.Stages {
			if st.Depth != 0 {
				continue
			}
			at := td.Start.Add(time.Duration(st.StartNS)).Sub(t0).Nanoseconds()
			spans = append(spans, span{Name: st.Stage, Request: id, Parent: "request", Start: at, End: at + st.DurNS})
			stageUS[st.Stage] = append(stageUS[st.Stage], float64(st.DurNS)/1e3)
			stageNS[st.Stage] += st.DurNS
			coveredNS += st.DurNS
		}
	}
	n := len(self)
	share := func(stage string) float64 { return ratio(float64(stageNS[stage]), float64(totalNS)) }
	r.set("http.self_p50_us", median(self), "us  client span minus server total, n=%d", n)
	r.set("service.decode_p50_us", median(stageUS[obs.StageDecode]), "us  n=%d", len(stageUS[obs.StageDecode]))
	r.set("service.decode_share", share(obs.StageDecode), "ratio  of server time")
	r.set("service.canonicalize_p50_us", median(stageUS[obs.StageCanonicalize]), "us  n=%d", len(stageUS[obs.StageCanonicalize]))
	r.set("service.canonicalize_share", share(obs.StageCanonicalize), "ratio")
	r.set("service.mem_tier_p50_us", median(stageUS[obs.StageMemTier]), "us  n=%d", len(stageUS[obs.StageMemTier]))
	r.set("service.warm_seed_share", share(obs.StageWarmSeed), "ratio")
	r.set("service.solve_share", share(obs.StageSolve), "ratio")
	r.set("service.stage_coverage", ratio(float64(coveredNS), float64(totalNS)), "ratio  top-level stages over server total")

	var queue, solve, marshal []float64
	var packets, epochs, moves, stages, accepted, saved float64
	solves := 0
	for _, s := range traces(append(slices.Clone(seeded), window...)) {
		td := s.x.ans.trace
		d := map[string]int64{}
		for _, st := range td.Stages {
			if st.Depth == 0 {
				d[st.Stage] += st.DurNS
			}
		}
		if _, ok := d[obs.StageSolve]; !ok {
			continue
		}
		solves++
		queue = append(queue, float64(d[obs.StageQueue])/1e3)
		solve = append(solve, float64(d[obs.StageSolve])/1e6)
		marshal = append(marshal, float64(d[obs.StageMarshal])/1e3)
		note := func(k string) float64 {
			v, _ := strconv.Atoi(td.Notes[k])
			return float64(v)
		}
		packets += note("sa_packets")
		epochs += note("sim_epochs")
		moves += note("anneal_moves")
		stages += note("anneal_stages")
		accepted += note("anneal_accepted")
		saved += note("warm_epochs_saved")
	}
	per := func(x float64) float64 { return ratio(x, float64(solves)) }
	r.set("service.engine_queue_mean_us", mean(queue), "us  over %d traced solves", solves)
	r.set("service.solve_p50_ms", median(solve), "ms")
	r.set("service.marshal_p50_us", median(marshal), "us")
	r.set("service.warm_stages_saved_per_solve", per(saved), "count")
	r.set("core.packets_per_solve", per(packets), "count")
	r.set("machsim.epochs_per_solve", per(epochs), "count")
	r.set("anneal.moves_per_solve", per(moves), "count")
	r.set("anneal.stages_per_solve", per(stages), "count")
	r.set("anneal.accept_ratio", ratio(accepted, moves), "ratio")
	return spans
}

// traces returns the exchanges of the samples that came back with a
// trace block.
func traces(samples []sample) []sample {
	var out []sample
	for _, s := range samples {
		if s.x != nil && s.x.err == nil && s.x.ans != nil && s.x.ans.trace != nil {
			out = append(out, s)
		}
	}
	return out
}

// timedPolicy times every Assign call of the SA scheduler it wraps.
type timedPolicy struct {
	*core.Scheduler
	calls int
	busy  time.Duration
}

func (p *timedPolicy) Assign(ep *machsim.Epoch) []machsim.Assignment {
	t := time.Now()
	out := p.Scheduler.Assign(ep)
	p.busy += time.Since(t)
	p.calls++
	return out
}

// replayer repeats the server's work for one request through the layers'
// public functions, in the server's order, reusing its buffers across
// requests as the server's pools and worker arenas do.
type replayer struct {
	c     taskgraph.Canonicalizer
	buf   []byte
	sum   [sha256.Size]byte
	sched *core.Scheduler
	sim   *machsim.Simulator
	t0    time.Time
	spans []span
}

func (rp *replayer) span(name string, id int, parent string, from, to time.Time) span {
	s := span{Name: name, Request: id, Parent: parent, Start: from.Sub(rp.t0).Nanoseconds(), End: to.Sub(rp.t0).Nanoseconds()}
	rp.spans = append(rp.spans, s)
	return s
}

// key parses the request's graph, encodes its canonical form and hashes
// it with the request's options: the work of a memory hit.
func (rp *replayer) key(r *request, id int) (parse, canon, hash span, err error) {
	t0 := time.Now()
	if err := rp.c.Parse(r.prob.graphJSON); err != nil {
		return parse, canon, hash, err
	}
	t1 := time.Now()
	rp.buf = rp.c.AppendCanonicalJSON(append(rp.buf[:0], `{"graph":`...))
	t2 := time.Now()
	rp.buf = append(rp.buf, `,"topo":"`...)
	rp.buf = append(rp.buf, r.prob.topo.Name()...)
	rp.buf = append(rp.buf, `","solver":"sa","seed":`...)
	rp.buf = append(strconv.AppendInt(rp.buf, r.seed, 10), '}')
	rp.sum = sha256.Sum256(rp.buf)
	t3 := time.Now()
	return rp.span("parse", id, "replay", t0, t1), rp.span("canon_json", id, "replay", t1, t2),
		rp.span("sha256", id, "replay", t2, t3), nil
}

// solveTimes is one replayed cold solve.
type solveTimes struct {
	graph, simulate, assign, marshal span
	moves                            int
}

// solve materializes the graph key parsed, runs the SA scheduler inside
// the simulator and encodes the wire result, which must equal want.
func (rp *replayer) solve(r *request, id int, want []byte) (solveTimes, error) {
	var st solveTimes
	t0 := time.Now()
	g, err := rp.c.Graph()
	if err != nil {
		return st, err
	}
	t1 := time.Now()
	st.graph = rp.span("graph", id, "replay", t0, t1)
	opt := core.DefaultOptions()
	opt.Seed = r.seed
	if err := rp.sched.Reset(g, r.prob.topo, r.prob.comm, opt); err != nil {
		return st, err
	}
	if err := rp.sim.Bind(machsim.Model{Graph: g, Topo: r.prob.topo, Comm: r.prob.comm}, machsim.Options{}); err != nil {
		return st, err
	}
	pol := &timedPolicy{Scheduler: rp.sched}
	t2 := time.Now()
	res, err := rp.sim.Run(pol)
	if err != nil {
		return st, err
	}
	t3 := time.Now()
	st.simulate = rp.span("simulate", id, "replay", t2, t3)
	st.assign = span{Name: "assign", Request: id, Parent: "simulate", Start: st.simulate.Start,
		End: st.simulate.Start + pol.busy.Nanoseconds(), Calls: pol.calls}
	rp.spans = append(rp.spans, st.assign)
	wire, err := service.ResultFromSim(res.Clone(), g, r.prob.topo.Name())
	if err != nil {
		return st, err
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return st, err
	}
	st.marshal = rp.span("marshal", id, "replay", t3, time.Now())
	if !bytes.Equal(body, want) {
		return st, fmt.Errorf("replayed %s on %s (seed %d) encodes differently from the server's answer",
			r.prob.graph.Name(), r.prob.spec, r.seed)
	}
	for _, p := range rp.sched.Packets() {
		st.moves += p.Moves
	}
	return st, nil
}

// replay repeats, through the library, the key path of every traced
// request that carries a graph and the whole solve of up to replayMax of
// the cold solves among them, setup first. It reports the library-level
// layer metrics and returns the replay spans, each under the ID of the
// request it repeats.
func replay(r *report, t0 time.Time, seeded, window []sample) ([]span, error) {
	rp := &replayer{sched: core.NewSchedulerArena(), sim: machsim.NewArena(), t0: t0}
	var parse, canon, hash, graph, marshal, assignMS, selfMS []float64
	var assignNS, totalNS int64
	moves, replayed := 0, 0
	var firstErr error
	for id, s := range traces(append(slices.Clone(seeded), window...)) {
		if s.x.req.prob == nil {
			continue // a delta edit carries no graph
		}
		start := time.Now()
		p, c, h, err := rp.key(s.x.req, id)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		parse, canon, hash = append(parse, float64(p.dur())/1e3), append(canon, float64(c.dur())/1e3), append(hash, float64(h.dur())/1e3)
		if s.x.ans.cache != "miss" || s.x.ans.warm != "" || replayed == replayMax {
			rp.span("replay", id, "", start, time.Now())
			continue
		}
		st, err := rp.solve(s.x.req, id, s.x.ans.body)
		root := rp.span("replay", id, "", start, time.Now())
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		replayed++
		graph = append(graph, float64(st.graph.dur())/1e3)
		marshal = append(marshal, float64(st.marshal.dur())/1e3)
		assignMS = append(assignMS, float64(st.assign.dur())/1e6)
		selfMS = append(selfMS, float64(selfTime(st.simulate, []span{st.assign}))/1e6)
		assignNS += st.assign.dur()
		totalNS += root.dur()
		moves += st.moves
	}
	r.set("taskgraph.parse_us", median(parse), "us  n=%d", len(parse))
	r.set("taskgraph.canon_json_us", median(canon), "us")
	r.set("key.sha256_us", median(hash), "us")
	r.set("taskgraph.graph_us", median(graph), "us  over %d replayed solves, bytes equal to the server's", replayed)
	r.set("wire.marshal_us", median(marshal), "us")
	r.set("core.assign_ms_per_solve", mean(assignMS), "ms")
	r.set("core.assign_share", ratio(float64(assignNS), float64(totalNS)), "ratio  of replayed solve time")
	r.set("anneal.ns_per_move", ratio(float64(assignNS), float64(moves)), "ns  over %d moves", moves)
	r.set("machsim.self_ms_per_solve", mean(selfMS), "ms  simulate minus assign")
	if replayed == 0 && firstErr == nil {
		firstErr = errors.New("no cold solve was replayed")
	}
	return rp.spans, firstErr
}

// writeSpans writes the spans as one JSON array to dir/<workload>.spans.json.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".spans.json"), b, 0o644)
}
