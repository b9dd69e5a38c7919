package proxy

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/programs"
	"repro/internal/taskgraph"
)

// fakeReplica is a dtserve stand-in: healthy /healthz, a canned schedule
// answer after an optional delay, and a counter of schedule calls seen.
type fakeReplica struct {
	ts    *httptest.Server
	calls atomic.Int64
	delay time.Duration
	body  string
}

func newFakeReplica(t *testing.T, delay time.Duration, body string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{delay: delay, body: body}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/schedule", func(w http.ResponseWriter, r *http.Request) {
		f.calls.Add(1)
		if f.delay > 0 {
			time.Sleep(f.delay)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(f.body))
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func newTestProxy(t *testing.T, cfg Config) (*Proxy, *httptest.Server) {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p.Handler())
	t.Cleanup(func() {
		front.Close()
		p.Close()
	})
	return p, front
}

// schedulePayload builds a real canonicalizer-parseable request so the
// proxy routes by fingerprint, exactly as production traffic does.
func schedulePayload(t *testing.T, key string, seed int64) []byte {
	t.Helper()
	prog, err := programs.ByKey(key)
	if err != nil {
		t.Fatal(err)
	}
	return marshalPayload(t, prog.Build(), seed)
}

// chainPayload builds a distinct n-task chain graph: routing is keyed by
// the graph fingerprint (seeds do not move a request between replicas),
// so tests that need many distinct routing keys need many distinct
// graphs.
func chainPayload(t *testing.T, n int) []byte {
	t.Helper()
	g := taskgraph.New("chain")
	prev := taskgraph.TaskID(-1)
	for i := 0; i < n; i++ {
		id := g.AddTask("t", float64(1+i))
		if prev >= 0 {
			if err := g.AddEdge(prev, id, 8); err != nil {
				t.Fatal(err)
			}
		}
		prev = id
	}
	return marshalPayload(t, g, 1)
}

func marshalPayload(t *testing.T, g *taskgraph.Graph, seed int64) []byte {
	t.Helper()
	body, err := json.Marshal(struct {
		Graph *taskgraph.Graph `json:"graph"`
		Topo  string           `json:"topo"`
		Seed  int64            `json:"seed"`
	}{g, "hypercube:3", seed})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// ownerOf reports the ring owner of one payload's graph fingerprint.
func ownerOf(t *testing.T, p *Proxy, payload []byte) int {
	t.Helper()
	var probe struct {
		Graph json.RawMessage `json:"graph"`
	}
	if err := json.Unmarshal(payload, &probe); err != nil {
		t.Fatal(err)
	}
	var c taskgraph.Canonicalizer
	if err := c.Parse(probe.Graph); err != nil {
		t.Fatal(err)
	}
	return p.ring.Owner(MixFingerprint(c.Fingerprint()))
}

// TestProxyStickyRouting: identical payloads land on one replica every
// time — the property fleet-wide singleflight is built on.
func TestProxyStickyRouting(t *testing.T) {
	a := newFakeReplica(t, 0, `{"from":"a"}`)
	b := newFakeReplica(t, 0, `{"from":"b"}`)
	_, front := newTestProxy(t, Config{
		Replicas:   []string{a.ts.URL, b.ts.URL},
		HedgeDelay: -1,
	})

	payload := schedulePayload(t, "FFT", 1)
	var winner string
	for i := 0; i < 10; i++ {
		resp, err := http.Post(front.URL+"/v1/schedule", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		rep := resp.Header.Get("X-DTProxy-Replica")
		if i == 0 {
			winner = rep
		} else if rep != winner {
			t.Fatalf("request %d routed to %s, earlier ones to %s", i, rep, winner)
		}
	}
	if got := a.calls.Load() + b.calls.Load(); got != 10 {
		t.Fatalf("backends saw %d calls, want 10", got)
	}
	if a.calls.Load() != 0 && b.calls.Load() != 0 {
		t.Fatalf("identical payloads split across replicas: a=%d b=%d", a.calls.Load(), b.calls.Load())
	}

	// Distinct graphs spread: over enough keys both replicas see work.
	for n := 2; n < 40; n++ {
		resp, err := http.Post(front.URL+"/v1/schedule", "application/json",
			bytes.NewReader(chainPayload(t, n)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if a.calls.Load() == 0 || b.calls.Load() == 0 {
		t.Fatalf("38 distinct keys never reached one replica: a=%d b=%d", a.calls.Load(), b.calls.Load())
	}
}

// TestProxyHedging: a slow primary gets hedged to the next ring replica
// after the fixed delay, the fast hedge wins, and the response says so.
func TestProxyHedging(t *testing.T) {
	slow := newFakeReplica(t, 400*time.Millisecond, `{"from":"slow"}`)
	fast := newFakeReplica(t, 0, `{"from":"fast"}`)
	p, front := newTestProxy(t, Config{
		Replicas:   []string{slow.ts.URL, fast.ts.URL},
		HedgeDelay: 20 * time.Millisecond,
	})

	// Find a payload whose ring owner is the slow replica, so the hedge
	// path is exercised deterministically.
	var payload []byte
	for n := 2; n < 200; n++ {
		if cand := chainPayload(t, n); ownerOf(t, p, cand) == 0 {
			payload = cand
			break
		}
	}
	if payload == nil {
		t.Fatal("no graph hashed to the slow replica in 200 tries")
	}

	start := time.Now()
	resp, err := http.Post(front.URL+"/v1/schedule", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)

	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, buf.String())
	}
	if resp.Header.Get("X-DTProxy-Hedged") != "1" {
		t.Fatal("winning response not marked hedged")
	}
	if got := resp.Header.Get("X-DTProxy-Replica"); got != fast.ts.URL {
		t.Fatalf("winner %s, want the fast hedge target %s", got, fast.ts.URL)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"fast"`)) {
		t.Fatalf("body %s is not the hedge's answer", buf.String())
	}
	if elapsed >= 400*time.Millisecond {
		t.Fatalf("request took %s; the hedge did not cut the slow primary short", elapsed)
	}
	st := p.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
}

// TestProxyAutoHedgeArming: auto mode stays disarmed until enough
// responses are observed, then derives a clamped p99.
func TestProxyAutoHedgeArming(t *testing.T) {
	fast := newFakeReplica(t, 0, `{}`)
	p, front := newTestProxy(t, Config{
		Replicas:        []string{fast.ts.URL},
		HedgeDelay:      0, // auto
		HedgeMinSamples: 5,
	})
	if d := p.hedgeDelay(); d != 0 {
		t.Fatalf("auto hedge armed at 0 samples: %s", d)
	}
	payload := schedulePayload(t, "MM", 1)
	for i := 0; i < 6; i++ {
		resp, err := http.Post(front.URL+"/v1/schedule", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	d := p.hedgeDelay()
	if d <= 0 {
		t.Fatal("auto hedge still disarmed after the sample floor")
	}
	if d < 2*time.Millisecond || d > 2*time.Second {
		t.Fatalf("auto hedge delay %s outside the clamp", d)
	}
}

// TestProxyReroutesOnTransportError: a dead primary costs a reroute, not
// a failed request, and the failure feeds the health state.
func TestProxyReroutesOnTransportError(t *testing.T) {
	alive := newFakeReplica(t, 0, `{"from":"alive"}`)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()

	p, front := newTestProxy(t, Config{
		Replicas:       []string{deadURL, alive.ts.URL},
		HedgeDelay:     -1,
		HealthInterval: time.Hour, // keep probes out of this test
	})

	// A key owned by the dead primary must still answer, via a reroute.
	var payload []byte
	for n := 2; n < 200; n++ {
		if cand := chainPayload(t, n); ownerOf(t, p, cand) == 0 {
			payload = cand
			break
		}
	}
	if payload == nil {
		t.Fatal("no graph hashed to the dead primary in 200 tries")
	}
	resp, err := http.Post(front.URL+"/v1/schedule", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d for a dead-primary key", resp.StatusCode)
	}
	if got := resp.Header.Get("X-DTProxy-Replica"); got != alive.ts.URL {
		t.Fatalf("answered by %s, want the surviving replica", got)
	}
	if st := p.Stats(); st.Reroutes == 0 {
		t.Fatal("reroute was not counted")
	}
}

// TestStatszMetricsParity: /statsz and /metrics render one snapshot.
// Every /statsz leaf, per-replica map entries included, is exactly one
// /metrics sample of equal value (hedge_delay_ns in seconds), and every
// family but the histograms and the build info maps back to a leaf.
func TestStatszMetricsParity(t *testing.T) {
	fast := newFakeReplica(t, 0, `{"from":"fast"}`)
	slow := newFakeReplica(t, 30*time.Millisecond, `{"from":"slow"}`)
	_, front := newTestProxy(t, Config{Replicas: []string{fast.ts.URL, slow.ts.URL}, HedgeDelay: 5 * time.Millisecond})
	for n := 2; n < 12; n++ {
		resp, err := http.Post(front.URL+"/v1/schedule", "application/json", bytes.NewReader(chainPayload(t, n)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	get := func(path string) string {
		resp, err := http.Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.String()
	}
	// Take /metrics between two equal /statsz bodies: a hedge loser or a
	// health probe may still be settling.
	var statsz, metrics string
	for i := 0; statsz == "" || get("/statsz") != statsz; i++ {
		if i == 100 {
			t.Fatal("/statsz never held still across a /metrics scrape")
		}
		time.Sleep(time.Duration(i) * time.Millisecond)
		statsz, metrics = get("/statsz"), get("/metrics")
	}

	samples := map[string]float64{}
	types := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(metrics), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if _, dup := samples[line[:i]]; dup || err != nil {
			t.Fatalf("sample %q is repeated or unparseable (%v)", line, err)
		}
		samples[line[:i]] = v
	}
	claimed := map[string]bool{}
	claim := func(leaf string, want float64, keys ...string) {
		var found []string
		for _, k := range keys {
			if _, ok := samples[k]; ok {
				found = append(found, k)
			}
		}
		if len(found) != 1 {
			t.Errorf("/statsz %s: /metrics carries %v of %v, want exactly one", leaf, found, keys)
			return
		}
		if samples[found[0]] != want {
			t.Errorf("/statsz %s = %v, but /metrics %s = %v", leaf, want, found[0], samples[found[0]])
		}
		claimed[found[0]] = true
	}
	var root map[string]any
	if err := json.Unmarshal([]byte(statsz), &root); err != nil {
		t.Fatal(err)
	}
	num := func(v any) float64 {
		if b, ok := v.(bool); ok {
			return map[bool]float64{true: 1}[b]
		}
		return v.(float64)
	}
	for key, v := range root {
		switch {
		case key == "routed" || key == "healthy":
			family := map[string]string{"routed": "dtproxy_routed_total", "healthy": "dtproxy_replica_healthy"}[key]
			for replica, rv := range v.(map[string]any) {
				claim(key+"."+replica, num(rv), family+"{replica="+strconv.Quote(replica)+"}")
			}
		case strings.HasSuffix(key, "_ns"):
			claim(key, num(v)/1e9, "dtproxy_"+strings.TrimSuffix(key, "_ns")+"_seconds")
		default:
			claim(key, num(v), "dtproxy_"+key, "dtproxy_"+key+"_total")
		}
	}
	fed := map[string]bool{}
	for key := range samples {
		family, _, _ := strings.Cut(key, "{")
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(family, suffix); ok && types[base] == "histogram" {
				family = base
			}
		}
		if types[family] == "histogram" || family == "dtproxy_build_info" {
			continue
		}
		if !claimed[key] {
			t.Errorf("/metrics sample %s maps to no /statsz leaf", key)
		}
		fed[family] = true
	}
	for family, kind := range types {
		if kind != "histogram" && family != "dtproxy_build_info" && !fed[family] {
			t.Errorf("/metrics family %s has no sample from a /statsz leaf", family)
		}
	}
}
