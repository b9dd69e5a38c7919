package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

func cliutilComm() topology.CommParams { return topology.DefaultCommParams() }
func saDefaults() core.Options         { return core.DefaultOptions() }

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func wireRequest(t *testing.T, program string, mutate func(*ScheduleRequest)) []byte {
	t.Helper()
	g, err := cliutil.BuildProgram(program)
	if err != nil {
		t.Fatal(err)
	}
	req := ScheduleRequest{Graph: g, Topo: "hypercube:3", Solver: "sa", Seed: 1991, Restarts: 2}
	if mutate != nil {
		mutate(&req)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getStats(t *testing.T, base string) Stats {
	t.Helper()
	resp, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestConcurrentScheduleDeterministic is the headline acceptance test:
// concurrent identical payloads — all forced to solve, no cache help —
// must produce byte-identical bodies.
func TestConcurrentScheduleDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64})
	payload := wireRequest(t, "FFT", func(r *ScheduleRequest) { r.NoCache = true })

	const n = 10
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, buf.String())
				return
			}
			bodies[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0 for an identical payload", i)
		}
	}
	var res Result
	if err := json.Unmarshal(bodies[0], &res); err != nil {
		t.Fatal(err)
	}
	if res.Solver != "SA(r=2)" || res.Makespan <= 0 || len(res.Schedule) == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

// TestCacheHitSkipsSolving asserts via /statsz that a warm hit does not
// reach the solver pool, and that hit bodies are byte-identical to the
// first (solved) response.
func TestCacheHitSkipsSolving(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64})
	payload := wireRequest(t, "NE", nil)

	resp, first := post(t, ts.URL+"/v1/schedule", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", resp.StatusCode, first)
	}
	if got := resp.Header.Get("X-DTServe-Cache"); got != "miss" {
		t.Fatalf("cold request reported cache=%q", got)
	}
	cold := getStats(t, ts.URL)
	if cold.Solves != 1 || cold.Cache.Misses != 1 {
		t.Fatalf("after cold request: solves=%d misses=%d, want 1/1", cold.Solves, cold.Cache.Misses)
	}

	const warmCalls = 5
	for i := 0; i < warmCalls; i++ {
		resp, body := post(t, ts.URL+"/v1/schedule", payload)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm status %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-DTServe-Cache"); got != "hit" {
			t.Fatalf("warm request %d reported cache=%q", i, got)
		}
		if !bytes.Equal(first, body) {
			t.Fatalf("warm body differs from cold body")
		}
	}
	warm := getStats(t, ts.URL)
	if warm.Solves != 1 {
		t.Fatalf("warm hits reached the solver: solves=%d, want 1", warm.Solves)
	}
	if warm.Cache.Hits != warmCalls {
		t.Fatalf("cache hits=%d, want %d", warm.Cache.Hits, warmCalls)
	}
}

// TestPortfolioNeverWorseOverAPI races the portfolio against each member
// on the same request and checks the acceptance bound end to end.
func TestPortfolioNeverWorseOverAPI(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64})
	makespan := func(solverName string) float64 {
		payload := wireRequest(t, "GJ", func(r *ScheduleRequest) { r.Solver = solverName })
		resp, body := post(t, ts.URL+"/v1/schedule", payload)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", solverName, resp.StatusCode, body)
		}
		var res Result
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	best := math.Inf(1)
	for _, name := range []string{"sa", "etf", "hlfcomm", "hlf"} {
		if m := makespan(name); m < best {
			best = m
		}
	}
	if got := makespan("portfolio"); got > best+1e-9 {
		t.Fatalf("portfolio makespan %g worse than best member %g", got, best)
	}
}

// TestStructured400s drives the machsim/topology/taskgraph error paths
// over the API: they must come back as structured JSON 400s, not panics.
func TestStructured400s(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 4})
	validGraph := `{"name":"g","tasks":[{"id":0,"load":5},{"id":1,"load":5}],"edges":[{"from":0,"to":1,"bits":40}]}`

	cases := []struct {
		name string
		body string
	}{
		{"invalid topology size", `{"graph":` + validGraph + `,"topo":"hypercube:25"}`},
		{"zero-processor topology", `{"graph":` + validGraph + `,"topo":"mesh:0x0"}`},
		{"unknown topology kind", `{"graph":` + validGraph + `,"topo":"mobius:4"}`},
		{"malformed topology spec", `{"graph":` + validGraph + `,"topo":"hypercube"}`},
		{"cyclic graph", `{"graph":{"name":"c","tasks":[{"id":0,"load":1},{"id":1,"load":1}],` +
			`"edges":[{"from":0,"to":1,"bits":0},{"from":1,"to":0,"bits":0}]},"topo":"hypercube:3"}`},
		{"sparse task ids", `{"graph":{"name":"s","tasks":[{"id":0,"load":1},{"id":2,"load":1}],"edges":[]},"topo":"hypercube:3"}`},
		{"empty graph", `{"graph":{"name":"e","tasks":[],"edges":[]},"topo":"hypercube:3"}`},
		{"missing graph", `{"topo":"hypercube:3"}`},
		{"missing topo", `{"graph":` + validGraph + `}`},
		{"negative edge volume", `{"graph":{"name":"n","tasks":[{"id":0,"load":1},{"id":1,"load":1}],` +
			`"edges":[{"from":0,"to":1,"bits":-40}]},"topo":"hypercube:3"}`},
		{"bad comm params", `{"graph":` + validGraph + `,"topo":"hypercube:3","comm":{"bandwidth":0,"sigma":7,"tau":9,"scale":1}}`},
		{"unknown solver", `{"graph":` + validGraph + `,"topo":"hypercube:3","solver":"quantum"}`},
		{"invalid weights", `{"graph":` + validGraph + `,"topo":"hypercube:3","wb":1.5}`},
		{"not json", `hello`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+"/v1/schedule", []byte(tc.body))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("error body is not structured JSON: %s", body)
			}
			if er.Error == "" {
				t.Fatalf("empty error message")
			}
		})
	}
}

// TestOptimalRejectionIs422 distinguishes solve-time rejections (valid
// input the chosen solver cannot handle) from malformed 400s.
func TestOptimalRejectionIs422(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 4})
	payload := wireRequest(t, "NE", func(r *ScheduleRequest) { r.Solver = "optimal" })
	resp, body := post(t, ts.URL+"/v1/schedule", payload)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422; body %s", resp.StatusCode, body)
	}
}

func TestBatchMatchesSingle(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64})

	single := wireRequest(t, "FFT", nil)
	respS, singleBody := post(t, ts.URL+"/v1/schedule", single)
	if respS.StatusCode != http.StatusOK {
		t.Fatalf("single: status %d", respS.StatusCode)
	}

	var sr ScheduleRequest
	if err := json.Unmarshal(single, &sr); err != nil {
		t.Fatal(err)
	}
	bad := ScheduleRequest{Topo: "hypercube:3"} // missing graph
	batchBody, err := json.Marshal(BatchRequest{Requests: []ScheduleRequest{sr, bad}})
	if err != nil {
		t.Fatal(err)
	}
	respB, body := post(t, ts.URL+"/v1/schedule/batch", batchBody)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", respB.StatusCode, body)
	}
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Items) != 2 {
		t.Fatalf("batch returned %d items, want 2", len(batch.Items))
	}
	if !bytes.Equal(bytes.TrimSpace(batch.Items[0].Result), bytes.TrimSpace(singleBody)) {
		t.Fatalf("batch item result differs from the single-call body")
	}
	if batch.Items[1].Error == "" || batch.Items[1].Result != nil {
		t.Fatalf("invalid batch item did not report an error: %+v", batch.Items[1])
	}

	oversize := BatchRequest{Requests: make([]ScheduleRequest, 10)}
	over, _ := json.Marshal(oversize)
	_, ts2 := newTestServer(t, Config{CacheSize: 4, MaxBatch: 4})
	resp, _ := post(t, ts2.URL+"/v1/schedule/batch", over)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversize batch: status %d, want 400", resp.StatusCode)
	}
}

func TestSolversAndHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 4, DefaultSolver: "portfolio"})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/solvers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Default string `json:"default"`
		Solvers []struct {
			Name        string `json:"name"`
			Description string `json:"description"`
		} `json:"solvers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if listing.Default != "portfolio" {
		t.Errorf("default solver %q", listing.Default)
	}
	found := map[string]bool{}
	for _, s := range listing.Solvers {
		found[s.Name] = true
		if s.Description == "" {
			t.Errorf("solver %q listed without description", s.Name)
		}
	}
	for _, want := range []string{"sa", "hlf", "etf", "optimal", "auto", "portfolio"} {
		if !found[want] {
			t.Errorf("solver %q missing from listing", want)
		}
	}
}

// TestNewRejectsBadConfig: a configuration New cannot honour is an
// error at startup, never a silently different server.
func TestNewRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"unknown default solver", Config{DefaultSolver: "nope"}},
		// A negative target would turn delay shedding off while /statsz
		// and /metrics reported it as in force.
		{"negative queue delay target", Config{QueueDelayTarget: -5 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if svc, err := New(tc.cfg); err == nil {
				svc.Close()
				t.Fatal("New accepted the config")
			}
		})
	}
}

// TestSeedChangesKey ensures option changes miss the cache instead of
// replaying a stale result.
func TestSeedChangesKey(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64})
	a := wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Seed = 1 })
	b := wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Seed = 2 })
	post(t, ts.URL+"/v1/schedule", a)
	post(t, ts.URL+"/v1/schedule", b)
	st := getStats(t, ts.URL)
	if st.Solves != 2 {
		t.Fatalf("distinct seeds shared a cache line: solves=%d", st.Solves)
	}
}

// TestGraphInsertionOrderSharesCacheLine: two payloads describing the same
// graph with edges listed in different orders must content-address to the
// same cached result.
func TestGraphInsertionOrderSharesCacheLine(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64})
	const forward = `{"graph":{"name":"g","tasks":[{"id":0,"load":5},{"id":1,"load":6},{"id":2,"load":7}],` +
		`"edges":[{"from":0,"to":1,"bits":40},{"from":0,"to":2,"bits":80}]},"topo":"hypercube:2","solver":"hlf"}`
	const reversed = `{"graph":{"name":"g","tasks":[{"id":2,"load":7},{"id":0,"load":5},{"id":1,"load":6}],` +
		`"edges":[{"from":0,"to":2,"bits":80},{"from":0,"to":1,"bits":40}]},"topo":"hypercube:2","solver":"hlf"}`
	respA, bodyA := post(t, ts.URL+"/v1/schedule", []byte(forward))
	respB, bodyB := post(t, ts.URL+"/v1/schedule", []byte(reversed))
	if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
		t.Fatalf("statuses %d/%d: %s %s", respA.StatusCode, respB.StatusCode, bodyA, bodyB)
	}
	if respB.Header.Get("X-DTServe-Cache") != "hit" {
		t.Fatalf("permuted payload missed the cache")
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatalf("permuted payload returned a different body")
	}
}

// TestResultSchemaStable pins the wire field set so CLI (--json) and
// server outputs stay diffable; a field rename breaks both sides together.
func TestResultSchemaStable(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 4})
	resp, body := post(t, ts.URL+"/v1/schedule", wireRequest(t, "FFT", nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"solver", "program", "topology", "makespan", "t1", "speedup",
		"messages", "transfer_time", "overhead_time", "epochs", "forced", "utilization", "schedule"} {
		if _, ok := fields[want]; !ok {
			t.Errorf("wire result lacks field %q", want)
		}
	}
}

func TestCacheKeyStable(t *testing.T) {
	g1 := taskgraph.New("a")
	g1.AddTask("t", 5)
	g2 := taskgraph.New("a")
	g2.AddTask("t", 5)
	k1, err := cacheKey(g1, "hypercube-8", cliutilComm(), "sa", saDefaults(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := cacheKey(g2, "hypercube-8", cliutilComm(), "sa", saDefaults(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("equal graphs produced different keys")
	}
	k3, err := cacheKey(g1, "ring-9", cliutilComm(), "sa", saDefaults(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Fatalf("different topologies share a key")
	}
	if fmt.Sprintf("%016x", g1.Fingerprint()) != k1[:16] {
		t.Fatalf("key does not start with the graph fingerprint: %s", k1)
	}
}

// TestPartialCommOverrideKeepsScale guards against a partial "comm"
// override silently zeroing Scale (which would make communication free).
func TestPartialCommOverrideKeepsScale(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 4})
	bw := 20.0
	payload := wireRequest(t, "FFT", func(r *ScheduleRequest) {
		r.Solver = "hlf"
		r.Comm = &CommOverride{Bandwidth: &bw}
	})
	resp, body := post(t, ts.URL+"/v1/schedule", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 || res.OverheadTime == 0 {
		t.Fatalf("bandwidth-only override disabled communication: %+v", res)
	}
}

// TestTimeoutIsPartOfCacheKey: a result computed under one deadline must
// not be replayed for the same payload with a different deadline.
func TestTimeoutIsPartOfCacheKey(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 16})
	tight := wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Solver = "hlf"; r.TimeoutMS = 60000 })
	loose := wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Solver = "hlf" })
	post(t, ts.URL+"/v1/schedule", tight)
	resp, _ := post(t, ts.URL+"/v1/schedule", loose)
	if resp.Header.Get("X-DTServe-Cache") == "hit" {
		t.Fatal("requests with different timeouts shared a cache line")
	}
	st := getStats(t, ts.URL)
	if st.Solves != 2 {
		t.Fatalf("solves=%d, want 2", st.Solves)
	}
}

// TestRestartsCapped rejects resource-exhaustion restart counts with a
// structured 400 instead of cloning packets without bound.
func TestRestartsCapped(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 4})
	payload := wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Restarts = 1 << 30 })
	resp, body := post(t, ts.URL+"/v1/schedule", payload)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("unstructured error body: %s", body)
	}
}

// TestDeadlinedPortfolioNotCached: a portfolio raced under a deadline is
// timing-dependent, so its result must be served but never memoized.
func TestDeadlinedPortfolioNotCached(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 16})
	payload := wireRequest(t, "FFT", func(r *ScheduleRequest) {
		r.Solver = "portfolio"
		r.TimeoutMS = 60_000 // generous: members finish, but the race had a clock
	})
	for i := 0; i < 2; i++ {
		resp, body := post(t, ts.URL+"/v1/schedule", payload)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("call %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-DTServe-Cache"); got != "miss" {
			t.Fatalf("call %d: deadline-raced portfolio served from cache (%q)", i, got)
		}
	}
	if st := getStats(t, ts.URL); st.Solves != 2 {
		t.Fatalf("solves=%d, want 2 (no memoization)", st.Solves)
	}

	// Without a deadline the portfolio is deterministic and cacheable.
	free := wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Solver = "portfolio" })
	post(t, ts.URL+"/v1/schedule", free)
	resp, _ := post(t, ts.URL+"/v1/schedule", free)
	if resp.Header.Get("X-DTServe-Cache") != "hit" {
		t.Fatal("deadline-free portfolio was not cached")
	}
}

// TestSingleflightCoalescesConcurrentMisses is the singleflight
// acceptance test: many concurrent identical cold requests perform
// exactly one solve per distinct cache key, and every caller receives the
// same byte-identical body.
func TestSingleflightCoalescesConcurrentMisses(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64})
	payloads := [][]byte{
		wireRequest(t, "FFT", nil),
		wireRequest(t, "NE", nil),
	}
	const perKey = 8
	total := perKey * len(payloads)
	bodies := make([][]byte, total)
	var hitTags, coalescedTags atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/schedule", payloads[i%len(payloads)])
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			switch got := resp.Header.Get("X-DTServe-Cache"); got {
			case "hit":
				hitTags.Add(1)
			case "coalesced":
				coalescedTags.Add(1)
			case "miss":
			default:
				t.Errorf("request %d: unknown cache status %q", i, got)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[i%len(payloads)]) {
			t.Fatalf("request %d body differs from its key's first body", i)
		}
	}
	st := getStats(t, ts.URL)
	if st.Solves != uint64(len(payloads)) {
		t.Fatalf("solves = %d, want %d (one per distinct key)", st.Solves, len(payloads))
	}
	// Every non-leader request was answered from the cache or from the
	// in-flight solve; nothing solved twice.
	if st.Cache.Hits+st.Coalesced != uint64(total-len(payloads)) {
		t.Fatalf("hits %d + coalesced %d != %d", st.Cache.Hits, st.Coalesced, total-len(payloads))
	}
	// The tags clients observe agree with the server's counters.
	if hitTags.Load() != int64(st.Cache.Hits) || coalescedTags.Load() != int64(st.Coalesced) {
		t.Fatalf("clients saw %d hit / %d coalesced tags, server counted %d / %d",
			hitTags.Load(), coalescedTags.Load(), st.Cache.Hits, st.Coalesced)
	}
}

// TestSingleflightWaiterReplaysLeaderBytes pins the waiter path
// deterministically: a request whose key already has a registered flight
// must wait for it and replay its bytes verbatim, marked "coalesced".
func TestSingleflightWaiterReplaysLeaderBytes(t *testing.T) {
	svc, ts := newTestServer(t, Config{CacheSize: 64})
	g, err := cliutil.BuildProgram("FFT")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cliutil.ParseTopology("hypercube:3")
	if err != nil {
		t.Fatal(err)
	}
	saOpt := saDefaults()
	saOpt.Seed = 1991
	saOpt.Restarts = 2
	key, err := cacheKey(g, topo.Name(), cliutilComm(), "sa", saOpt, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fake := []byte(`{"stub":"from-leader"}`)
	f := &flight{done: make(chan struct{})}
	svc.mu.Lock()
	svc.inflight[key] = f
	svc.mu.Unlock()
	go func() {
		time.Sleep(30 * time.Millisecond)
		f.body = fake
		svc.mu.Lock()
		delete(svc.inflight, key)
		svc.mu.Unlock()
		close(f.done)
	}()
	resp, body := post(t, ts.URL+"/v1/schedule", wireRequest(t, "FFT", nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-DTServe-Cache"); got != "coalesced" {
		t.Fatalf("cache status %q, want coalesced", got)
	}
	if !bytes.Equal(body, fake) {
		t.Fatalf("waiter body %q, want the leader's bytes", body)
	}
	if st := getStats(t, ts.URL); st.Coalesced != 1 || st.Solves != 0 {
		t.Fatalf("coalesced=%d solves=%d, want 1 and 0", st.Coalesced, st.Solves)
	}
}

// TestMetricsEndpoint scrapes /metrics and checks the exposition carries
// the counters and the solve-latency histogram.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 16, QueueDelayTarget: 25 * time.Millisecond})
	post(t, ts.URL+"/v1/schedule", wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Solver = "hlf" }))
	post(t, ts.URL+"/v1/schedule", wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Solver = "hlf" })) // warm hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE dtserve_requests_total counter",
		"dtserve_solves_total 1",
		"dtserve_cache_hits_total 1",
		"dtserve_coalesced_total 0",
		`dtserve_solves_by_solver_total{solver="hlf"} 1`,
		"# TYPE dtserve_disk_hits_total counter",
		"dtserve_disk_hits_total 0",
		"# TYPE dtserve_disk_writes_total counter",
		"# TYPE dtserve_disk_evictions_total counter",
		"# TYPE dtserve_disk_errors_total counter",
		"dtserve_solve_duration_seconds_bucket{le=\"+Inf\"} 1",
		"dtserve_solve_duration_seconds_count 1",
		"# TYPE dtserve_solve_duration_seconds histogram",
		`dtserve_lane_queue_delay_target_seconds{lane="batch"} 0.025`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}

	// Bucket counts must be cumulative: the +Inf bucket equals the count.
	if !strings.Contains(text, `dtserve_solve_duration_seconds_bucket{le="0.001"}`) {
		t.Error("first latency bucket missing")
	}
}

// TestRacedPortfolioNotCached: a portfolio resolved by lower-bound early
// cancellation is timing-dependent, so its result is served but never
// memoized — the same rule as a deadline race.
func TestRacedPortfolioNotCached(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 16})
	// Six independent equal tasks on 8 processors without communication:
	// the lower bound max(longest task, T1/8) = 5 is achieved by every
	// list policy, so the portfolio early-cancels on the first finisher.
	g := taskgraph.New("independent")
	for i := 0; i < 6; i++ {
		g.AddTask(fmt.Sprintf("t%d", i), 5)
	}
	req := ScheduleRequest{Graph: g, Topo: "hypercube:3", Solver: "portfolio", NoComm: true}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, body := post(t, ts.URL+"/v1/schedule", payload)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("call %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-DTServe-Cache"); got != "miss" {
			t.Fatalf("call %d: early-cancelled portfolio served from cache (%q)", i, got)
		}
		var res Result
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Makespan-5) > 1e-9 {
			t.Fatalf("call %d: makespan %g, want the lower bound 5", i, res.Makespan)
		}
	}
	if st := getStats(t, ts.URL); st.Solves != 2 {
		t.Fatalf("solves=%d, want 2 (raced results are not memoized)", st.Solves)
	}
}
