package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/service"
)

// client drives the server over loopback HTTP with at most conns
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(baseURL string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: baseURL, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// answer is a server response, read in full.
type answer struct {
	body  []byte
	cache string // X-DTServe-Cache
	addr  string // X-DTServe-Address
	warm  string // X-DTServe-Warm
	trace *obs.TraceData
}

// do sends r and reads the whole answer. A non-200 answer is an error.
func (c *client) do(r *request) (*answer, error) {
	resp, err := c.hc.Post(c.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read answer: %w", err)
	}
	a := &answer{body: body, cache: resp.Header.Get("X-DTServe-Cache"),
		addr: resp.Header.Get("X-DTServe-Address"), warm: resp.Header.Get("X-DTServe-Warm")}
	if resp.StatusCode != http.StatusOK {
		return a, fmt.Errorf("%s: status %d: %s", r.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return a, nil
}

func (c *client) stats() (service.Stats, error) {
	var st service.Stats
	resp, err := c.hc.Get(c.base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statsz: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("/statsz: %w", err)
	}
	return st, nil
}

// splitTrace removes the trace block the server splices onto the end of a
// traced answer, leaving the bytes the server cached.
func splitTrace(a *answer) error {
	var env struct {
		Trace json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal(a.body, &env); err != nil {
		return fmt.Errorf("decode traced answer: %w", err)
	}
	if env.Trace == nil {
		return errors.New("traced answer carries no trace block")
	}
	tail := append(append([]byte(`,"trace":`), env.Trace...), '}')
	if !bytes.HasSuffix(a.body, tail) {
		return errors.New("trace block is not the answer's last field")
	}
	var td obs.TraceData
	if err := json.Unmarshal(env.Trace, &td); err != nil {
		return fmt.Errorf("decode trace block: %w", err)
	}
	head := a.body[:len(a.body)-len(tail)]
	a.body = append(head[:len(head):len(head)], '}')
	a.trace = &td
	return nil
}

// sample is one request of a phase. A closed loop keeps one per request,
// so it holds only what every run needs: the process's peak RSS is a
// metric, and the benchmark's own memory must grow as little as possible
// with the throughput it reaches. The rest of a request is kept in an
// exchange, only where that is affordable.
type sample struct {
	lat time.Duration // answer minus send (closed loop) or minus due time (open loop)
	x   *exchange
}

// exchange is the rest of a request. It is kept for traced and failed
// requests, and for every request of a phase that keeps them all: the
// open loop, which sends a few thousand, and the traced pass, which
// reports no memory.
type exchange struct {
	req        *request // traced requests only
	ans        *answer  // traced requests only
	sent, done time.Time
	// lag is how late the generator sent the request: after the client's
	// previous answer in a closed loop; in an open one, after its due time
	// or after its connection came free, whichever was later.
	lag   time.Duration
	queue time.Duration // open loop: from the due time until a connection was free
	hot   bool
	err   error
}

func (s *sample) err() error {
	if s.x == nil {
		return nil
	}
	return s.x.err
}

// record checks the answer of a request sent at sent, whose latency is
// already measured. It returns the request's sample without its latency,
// and the answer's speedup; keep asks for the exchange even when the
// request is neither traced nor failed.
func record(r *request, a *answer, err error, sent, done time.Time, traced, keep bool,
	check func(*request, *answer) (float64, error)) (sample, float64) {

	var s sample
	speedup := 0.0
	if err == nil && traced {
		err = splitTrace(a)
	}
	if err == nil {
		speedup, err = check(r, a)
	}
	if traced || keep || err != nil {
		s.x = &exchange{sent: sent, done: done, hot: r.hot != nil, err: err}
		if traced {
			s.x.req, s.x.ans = r, a
		}
	}
	return s, speedup
}

// seed sends setup requests on nproc goroutines, before any clock starts.
// Any failure fails the setup.
func (c *client) seed(reqs []*request, workers int, traced bool, check func(i int, a *answer) error) ([]sample, error) {
	out := make([]sample, len(reqs))
	err := engine.ParallelFor(workers, len(reqs), func(i int, _ *engine.Worker) error {
		sent := time.Now()
		a, err := c.do(reqs[i])
		done := time.Now()
		out[i], _ = record(reqs[i], a, err, sent, done, traced, false,
			func(_ *request, a *answer) (float64, error) { return 0, check(i, a) })
		out[i].lat = done.Sub(sent)
		return out[i].err()
	})
	return out, err
}

// phase is one stretch of a workload's traffic.
type phase struct {
	// next holds each closed-loop client's next request index, or, in its
	// first element, the next open-loop arrival. The phase advances it, so
	// consecutive phases continue one request sequence.
	next []int
	// count is the number of requests per client or of arrivals; 0 runs
	// for length instead.
	count  int
	length time.Duration
	traced bool
	keep   bool // keep every request's exchange
	// quality is how many requests per client, counted from request 0,
	// feed speedup_mean; 0 means every request.
	quality int
	mem     *memProbe // nil reads no memory
}

// memProbe reads the process's peak resident set once at answers have
// come in, or when read is called, whichever is first. at 0 waits for read.
type memProbe struct {
	at    int64
	n     atomic.Int64
	once  sync.Once
	after int64 // answers in when the peak was read
	mib   float64
	err   error
}

func (m *memProbe) answered() {
	if m != nil && m.n.Add(1) == m.at {
		m.read()
	}
}

func (m *memProbe) read() {
	m.once.Do(func() {
		m.after = m.n.Load()
		m.mib, m.err = peakRSSMiB()
	})
}

// phaseResult is a phase's samples and its wall time. The samples stay in
// the blocks the clients filled: a closed-loop client grows its storage a
// block at a time and nothing copies it afterwards, so the benchmark's own
// memory grows in proportion to the requests sent, without jumps at
// powers of two.
type phaseResult struct {
	blocks   [][]sample
	wall     time.Duration // phase start to the last answer
	speedups speedups
}

func (r *phaseResult) each(f func(*sample)) {
	for _, b := range r.blocks {
		for i := range b {
			f(&b[i])
		}
	}
}

// sorted returns, in milliseconds and sorted, the duration f picks from
// each sample it accepts.
func (r *phaseResult) sorted(f func(*sample) (time.Duration, bool)) []float64 {
	n := 0
	r.each(func(s *sample) {
		if _, ok := f(s); ok {
			n++
		}
	})
	out := make([]float64, 0, n)
	r.each(func(s *sample) {
		if d, ok := f(s); ok {
			out = append(out, ms(d))
		}
	})
	slices.Sort(out)
	return out
}

// all copies the samples into one slice.
func (r *phaseResult) all() []sample {
	var out []sample
	r.each(func(s *sample) { out = append(out, *s) })
	return out
}

// speedups totals the answer speedups that feed speedup_mean.
type speedups struct {
	sum float64
	n   int
}

// add counts the speedup of request n if its answer passed and the phase
// counts it.
func (t *speedups) add(ph phase, n int, s sample, speedup float64) {
	if s.err() == nil && (ph.quality == 0 || n < ph.quality) {
		t.sum += speedup
		t.n++
	}
}

func (t *speedups) merge(o speedups) { t.sum, t.n = t.sum+o.sum, t.n+o.n }

func (t speedups) mean() float64 { return t.sum / float64(max(t.n, 1)) }

// blocks holds a client's samples in fixed-size blocks.
type blocks [][]sample

func (b *blocks) add(s sample) {
	if n := len(*b); n == 0 || len((*b)[n-1]) == cap((*b)[n-1]) {
		*b = append(*b, make([]sample, 0, 1024))
	}
	last := &(*b)[len(*b)-1]
	*last = append(*last, s)
}

// runClosed runs one client per connection, each sending its next request
// when the previous answer is in and checked.
func runClosed(w workload, c *client, clients int, ph phase) *phaseResult {
	start := time.Now()
	deadline := start.Add(ph.length)
	type loop struct {
		samples  blocks
		last     time.Time
		speedups speedups
	}
	per := make([]loop, clients)
	var wg sync.WaitGroup
	for k := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &per[k]
			cl.last = start
			from := ph.next[k]
			for n := from; ; n++ {
				if ph.count > 0 && n >= from+ph.count || ph.count == 0 && !time.Now().Before(deadline) {
					ph.next[k] = n
					return
				}
				r := w.request(k, n, ph.traced)
				sent := time.Now()
				a, err := c.do(r)
				done := time.Now()
				s, speedup := record(r, a, err, sent, done, ph.traced, ph.keep, w.check)
				s.lat = done.Sub(sent)
				if s.x != nil {
					s.x.lag = sent.Sub(cl.last)
				}
				ph.mem.answered()
				cl.speedups.add(ph, n, s, speedup)
				cl.samples.add(s)
				cl.last = done
			}
		}()
	}
	wg.Wait()
	res := &phaseResult{}
	for _, cl := range per {
		res.blocks = append(res.blocks, cl.samples...)
		res.wall = max(res.wall, cl.last.Sub(start))
		res.speedups.merge(cl.speedups)
	}
	return res
}

// arrivals returns the due times of an open-loop phase's arrivals as
// offsets from the phase start.
func arrivals(seed int64, rate float64, ph phase) []time.Duration {
	var out []time.Duration
	t := 0.0
	from := ph.next[0]
	for n := from; ph.count == 0 || n < from+ph.count; n++ {
		t += arrivalGap(seed, rate, n)
		off := time.Duration(t * float64(time.Second))
		if ph.count == 0 && off >= ph.length {
			break
		}
		out = append(out, off)
	}
	return out
}

// runOpen sends each arrival at its due time on the first free connection
// and times it from that due time, so a request stuck behind a slow one is
// charged the wait. A connection claims the next arrival as soon as it is
// free and sleeps until it is due: there is no dispatcher goroutine to hand
// it over, whose wake-up would add to every latency.
func runOpen(w workload, c *client, conns int, dues []time.Duration, ph phase) *phaseResult {
	out := make([]sample, len(dues))
	type conn struct {
		last     time.Time
		speedups speedups
	}
	per := make([]conn, conns)
	from := ph.next[0]
	ph.next[0] += len(dues)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for k := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn := &per[k]
			for {
				i := int(next.Add(1)) - 1
				if i >= len(dues) {
					return
				}
				due, free := start.Add(dues[i]), time.Now()
				if d := due.Sub(free); d > 0 {
					time.Sleep(d)
				}
				n := from + i
				r := w.request(k, n, ph.traced)
				sent := time.Now()
				a, err := c.do(r)
				done := time.Now()
				s, speedup := record(r, a, err, sent, done, ph.traced, true, w.check)
				s.lat = done.Sub(due)
				s.x.queue = max(free.Sub(due), 0)
				s.x.lag = sent.Sub(due) - s.x.queue
				ph.mem.answered()
				cn.speedups.add(ph, n, s, speedup)
				out[i] = s
				cn.last = done
			}
		}()
	}
	wg.Wait()
	res := &phaseResult{blocks: [][]sample{out}}
	for _, cn := range per {
		if !cn.last.IsZero() {
			res.wall = max(res.wall, cn.last.Sub(start))
		}
		res.speedups.merge(cn.speedups)
	}
	return res
}

// env is one workload's server and client.
type env struct {
	spec    spec
	w       workload
	b       *base
	svc     *service.Server
	hs      *http.Server
	served  chan error
	c       *client
	clients int
	next    []int // the request sequence's cursor: see phase.next
}

// start serves a fresh service with dtserve's defaults (4096-entry cache,
// one solve worker per CPU, default similarity index), logging and trace
// sampling off, on a loopback listener.
func start(sp spec, seed int64, clients int) (*env, error) {
	b, err := newBase(seed, clients)
	if err != nil {
		return nil, err
	}
	w, err := sp.build(b)
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{CacheSize: 4096})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	e := &env{spec: sp, w: w, b: b, svc: svc, served: make(chan error, 1), clients: clients, next: make([]int, clients),
		hs: &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		c:  newClient("http://"+ln.Addr().String(), clients)}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.c.hc.CloseIdleConnections()
	_ = e.hs.Shutdown(ctx) // an expired context only cuts idle waits short
	<-e.served
	e.svc.Close()
}

// run runs one phase of the workload.
func (e *env) run(seed int64, ph phase) *phaseResult {
	if e.spec.rate > 0 {
		return runOpen(e.w, e.c, e.clients, arrivals(seed, e.spec.rate, ph), ph)
	}
	return runClosed(e.w, e.c, e.clients, ph)
}
