package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// spec describes one workload. The why strings are repeated in
// BENCHMARK.json and bench/README.md.
type spec struct {
	name string
	why  string
	// rate is the open-loop arrival rate in requests per second; 0 means
	// a closed loop with one client per connection.
	rate float64
	// quality is how many requests per client (closed loop) feed
	// speedup_mean, so that the metric covers the same answers on every
	// run of a seed whatever the throughput. An open loop uses every
	// arrival, which is already a fixed set.
	quality int
	// memAt is how many timed answers come in before rss_peak_mb is read;
	// 0 reads it when the timed phase ends. Set where memory grows with
	// the answers a run gets through, so that the reading does not follow
	// the processors' speed.
	memAt int
	build func(b *base) (workload, error)
}

var specs = []spec{
	{name: "cold_solve", quality: 400, memAt: 2000, build: newColdSolve,
		why: "every request is a distinct key, so the solve stack (core, anneal, machsim) takes ~91% of the server's time and the service layers ~7%"},
	{name: "warm_hit", quality: 5000, build: newWarmHit,
		why: "64 seeded keys drawn uniformly, so every answer is a memory hit: decode, canonicalize, key and write take all the time"},
	{name: "delta_edit", quality: 1000, build: newDeltaEdit,
		why: "chained set_load edits warm-start a shortened anneal; every answer writes the cache and sim index, which start evicting"},
	{name: "mixed_open", rate: 300, build: newMixedOpen,
		why: "open loop at 300 req/s, 90% hot keys and 10% cold solves: cold solves hold connections and processors, and hits wait behind them"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// workload generates one traffic mix. request and check run on the
// client goroutines: request(k, n) is client k's n-th request in a closed
// loop and arrival n in an open one (k is then the connection, which the
// request must not depend on).
type workload interface {
	// setup seeds the server before the clock starts.
	setup(c *client, traced bool) ([]sample, error)
	request(k, n int, traced bool) *request
	// check verifies an answer and returns its wire speedup.
	check(r *request, a *answer) (float64, error)
	// verify asserts what the server's counters must show over a timed
	// phase.
	verify(before, after service.Stats) error
}

// request is one HTTP call and what its answer is checked against.
type request struct {
	path string
	body []byte
	prob *problem // the instance solved; nil for a delta edit
	seed int64    // SA seed of prob
	edit *edit    // nil unless a delta edit

	// hot is the exact answer of a hot key, nil for fresh work; speedup
	// is that answer's wire speedup.
	hot     []byte
	speedup float64
}

// edit is one delta_edit request: a set_load on the chain's latest answer.
type edit struct {
	chain *chain
	graph *taskgraph.Graph // the chain's graph with the edit applied
}

// chain is a sequence of delta edits. Each edit names the chain's latest
// answer as its base, so a base never ages out of the server's
// similarity index.
type chain struct {
	prob  *problem
	graph *taskgraph.Graph // the graph the latest answer solved
	addr  string           // the latest answer's content address
}

// base holds what every workload shares.
type base struct {
	seed     int64
	clients  int
	problems []*problem

	mu       sync.Mutex
	validate []time.Duration // durations of this run's schedule.Validate calls
}

func newBase(seed int64, clients int) (*base, error) {
	probs, err := newProblems()
	if err != nil {
		return nil, err
	}
	return &base{seed: seed, clients: clients, problems: probs}, nil
}

func (b *base) solve(p *problem, s int64, traced bool) *request {
	return &request{path: "/v1/schedule", body: scheduleBody(p, s, traced), prob: p, seed: s}
}

// checkResult validates a wire Result against the problem it answers
// with the independent feasibility checker and recomputes its headline
// numbers.
func (b *base) checkResult(body []byte, g *taskgraph.Graph, topo *topology.Topology, comm topology.CommParams) (float64, error) {
	var res service.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, fmt.Errorf("decode answer: %w", err)
	}
	if res.Program != g.Name() || res.Topology != topo.Name() {
		return 0, fmt.Errorf("answer is for %s on %s, want %s on %s", res.Program, res.Topology, g.Name(), topo.Name())
	}
	sched := schedule.Schedule{Policy: res.Solver, Makespan: res.Makespan, Entries: res.Schedule}
	start := time.Now()
	err := sched.Validate(g, topo, comm)
	dur := time.Since(start)
	b.mu.Lock()
	b.validate = append(b.validate, dur)
	b.mu.Unlock()
	if err != nil {
		return 0, err
	}
	latest := 0.0
	for _, e := range res.Schedule {
		latest = math.Max(latest, e.Finish)
	}
	t1 := g.TotalLoad()
	switch {
	case res.Makespan > latest+1e-9:
		return 0, fmt.Errorf("makespan %g exceeds the latest finish %g", res.Makespan, latest)
	case !near(res.SequentialTime, t1):
		return 0, fmt.Errorf("t1 %g, want %g", res.SequentialTime, t1)
	case !near(res.Speedup, t1/res.Makespan):
		return 0, fmt.Errorf("speedup %g, want %g", res.Speedup, t1/res.Makespan)
	}
	return res.Speedup, nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func (b *base) checkSolve(r *request, a *answer) (float64, error) {
	return b.checkResult(a.body, r.prob.graph, r.prob.topo, r.prob.comm)
}

// checkHot compares a hot key's answer with the bytes setup received.
func checkHot(r *request, a *answer) (float64, error) {
	if !bytes.Equal(a.body, r.hot) {
		return 0, errors.New("hot-key answer differs from the body setup received")
	}
	return r.speedup, nil
}

// hotKey is a key seeded in setup, as a request in either trace mode.
// Setup stores the answer that every later request for it must repeat
// byte for byte.
type hotKey struct{ plain, traced *request }

const numHot = 64

// hotKeys builds the hot requests; seedHot solves them.
func (b *base) hotKeys() []*hotKey {
	keys := make([]*hotKey, numHot)
	for i := range keys {
		p := b.problems[i%len(b.problems)]
		s := solveSeed(b.seed, streamHot, i)
		keys[i] = &hotKey{plain: b.solve(p, s, false), traced: b.solve(p, s, true)}
	}
	return keys
}

func (b *base) seedHot(c *client, keys []*hotKey, traced bool) ([]sample, error) {
	reqs := make([]*request, len(keys))
	for i, k := range keys {
		reqs[i] = k.pick(traced)
	}
	return c.seed(reqs, b.clients, traced, func(i int, a *answer) error {
		sp, err := b.checkSolve(reqs[i], a)
		for _, r := range []*request{keys[i].plain, keys[i].traced} {
			r.hot, r.speedup = a.body, sp
		}
		return err
	})
}

func (k *hotKey) pick(traced bool) *request {
	if traced {
		return k.traced
	}
	return k.plain
}

// coldSolve sends a distinct key every time: the 12 combinations cycle
// and every request has its own SA seed.
type coldSolve struct{ *base }

func newColdSolve(b *base) (workload, error) { return &coldSolve{b}, nil }

// setup solves each combination once under seeds no timed request uses,
// so each engine worker has grown its arenas before the clock starts.
func (w *coldSolve) setup(c *client, traced bool) ([]sample, error) {
	reqs := make([]*request, len(w.problems))
	for i, p := range w.problems {
		reqs[i] = w.solve(p, solveSeed(w.seed, streamWarmup, i), traced)
	}
	return c.seed(reqs, w.clients, traced, func(i int, a *answer) error {
		_, err := w.checkSolve(reqs[i], a)
		return err
	})
}

func (w *coldSolve) request(k, n int, traced bool) *request {
	i := n*w.clients + k
	return w.solve(w.problems[i%len(w.problems)], solveSeed(w.seed, streamCold, i), traced)
}

func (w *coldSolve) check(r *request, a *answer) (float64, error) { return w.checkSolve(r, a) }

func (w *coldSolve) verify(before, after service.Stats) error { return nil }

// warmHit draws every request uniformly from the 64 hot keys.
type warmHit struct {
	*base
	hot []*hotKey
}

func newWarmHit(b *base) (workload, error) { return &warmHit{base: b, hot: b.hotKeys()}, nil }

func (w *warmHit) setup(c *client, traced bool) ([]sample, error) {
	return w.seedHot(c, w.hot, traced)
}

func (w *warmHit) request(k, n int, traced bool) *request {
	i := n*w.clients + k
	return w.hot[draw(w.seed, streamPick, i)%numHot].pick(traced)
}

func (w *warmHit) check(r *request, a *answer) (float64, error) {
	if a.cache != "hit" {
		return 0, fmt.Errorf("answered %q, want a memory hit", a.cache)
	}
	return checkHot(r, a)
}

func (w *warmHit) verify(before, after service.Stats) error {
	if n := after.Solves - before.Solves; n != 0 {
		return fmt.Errorf("the server solved %d times during the timed phase, want 0", n)
	}
	return nil
}

// deltaEdit drives 32 chains of set_load edits, each chain owned by one
// client.
type deltaEdit struct {
	*base
	chains []*chain
}

const numChains = 32

func newDeltaEdit(b *base) (workload, error) {
	if b.clients > numChains {
		return nil, fmt.Errorf("delta_edit needs at most %d clients, have %d", numChains, b.clients)
	}
	w := &deltaEdit{base: b, chains: make([]*chain, numChains)}
	for j := range w.chains {
		p := b.problems[j%len(b.problems)]
		w.chains[j] = &chain{prob: p, graph: p.graph}
	}
	return w, nil
}

func (w *deltaEdit) baseRequest(j int, traced bool) *request {
	return w.solve(w.chains[j].prob, solveSeed(w.seed, streamBase, j), traced)
}

func (w *deltaEdit) setup(c *client, traced bool) ([]sample, error) {
	reqs := make([]*request, len(w.chains))
	for j := range w.chains {
		reqs[j] = w.baseRequest(j, traced)
	}
	return c.seed(reqs, w.clients, traced, func(j int, a *answer) error {
		if a.addr == "" {
			return errors.New("base answer carries no X-DTServe-Address")
		}
		w.chains[j].addr = a.addr
		_, err := w.checkSolve(reqs[j], a)
		return err
	})
}

// request edits one of client k's chains, in turn. The task is uniform and
// its new load is its program load scaled by a factor in [0.5, 1.5), so
// the chains stay close to the paper's programs however long a run lasts.
func (w *deltaEdit) request(k, n int, traced bool) *request {
	owned := (numChains - k + w.clients - 1) / w.clients // chains j with j%clients == k
	ch := w.chains[k+w.clients*(n%owned)]
	v := draw(w.seed, streamEdit, n*w.clients+k)
	task := int(v % uint64(ch.graph.NumTasks()))
	load := ch.prob.graph.Load(taskgraph.TaskID(task)) * (0.5 + unit(splitmix(v)))
	g := ch.graph.Clone()
	g.SetLoad(taskgraph.TaskID(task), load)
	return &request{path: "/v1/schedule/delta", body: deltaBody(ch.addr, task, load, traced),
		edit: &edit{chain: ch, graph: g}}
}

func (w *deltaEdit) check(r *request, a *answer) (float64, error) {
	if a.warm == "" {
		return 0, errors.New("delta answer carries no X-DTServe-Warm")
	}
	if a.addr == "" {
		return 0, errors.New("delta answer carries no X-DTServe-Address")
	}
	ch := r.edit.chain
	sp, err := w.checkResult(a.body, r.edit.graph, ch.prob.topo, ch.prob.comm)
	if err != nil {
		return 0, err
	}
	ch.graph, ch.addr = r.edit.graph, a.addr
	return sp, nil
}

func (w *deltaEdit) verify(before, after service.Stats) error {
	if n := after.Cache.Hits - before.Cache.Hits; n != 0 {
		return fmt.Errorf("%d delta answers came from memory, want 0", n)
	}
	return nil
}

// mixedOpen sends 90% hot keys and 10% fresh cold keys. Every tenth
// arrival is the cold one and the cold ones cycle through the
// combinations, so the latency tail they form has the same make-up under
// every seed; only the arrival times and the hot keys are drawn.
type mixedOpen struct {
	*base
	hot []*hotKey
}

func newMixedOpen(b *base) (workload, error) { return &mixedOpen{base: b, hot: b.hotKeys()}, nil }

func (w *mixedOpen) setup(c *client, traced bool) ([]sample, error) {
	return w.seedHot(c, w.hot, traced)
}

func (w *mixedOpen) request(_, n int, traced bool) *request {
	if n%10 == 0 {
		return w.solve(w.problems[(n/10)%len(w.problems)], solveSeed(w.seed, streamCold, n), traced)
	}
	return w.hot[draw(w.seed, streamMixed, n)%numHot].pick(traced)
}

func (w *mixedOpen) check(r *request, a *answer) (float64, error) {
	if r.hot == nil {
		return w.checkSolve(r, a)
	}
	return checkHot(r, a)
}

func (w *mixedOpen) verify(before, after service.Stats) error { return nil }
