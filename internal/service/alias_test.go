package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/obs"
)

// answer is one /v1/schedule response as a client sees it.
type answer struct {
	code  int
	body  []byte
	cache string // X-DTServe-Cache
	addr  string // X-DTServe-Address
}

func serveAnswer(h http.Handler, body []byte) answer {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
	return answer{code: rec.Code, body: rec.Body.Bytes(),
		cache: rec.Header().Get("X-DTServe-Cache"), addr: rec.Header().Get("X-DTServe-Address")}
}

// aliasVariants returns, for each of four valid requests, the request
// and variants of it that differ only in envelope key order or
// whitespace: every variant must be answered with the same bytes.
func aliasVariants() map[string][]string {
	g := parityGraph
	type req struct{ topo, solver, rest string }
	reqs := map[string]req{
		"plain":   {`"ring:3"`, `"hlf"`, ``},
		"seeded":  {`"ring:3"`, `"hlf"`, `,"seed":42`},
		"options": {`"hypercube:2"`, `"etf"`, `,"seed":-7,"wb":0.25,"lane":"batch","comm":{"bandwidth":2,"sigma":0.5}`},
		"sa":      {`"ring:3"`, `"sa"`, `,"seed":1991,"restarts":2`},
	}
	out := make(map[string][]string, len(reqs))
	for name, r := range reqs {
		out[name] = []string{
			`{"graph":` + g + `,"topo":` + r.topo + `,"solver":` + r.solver + r.rest + `}`,
			`{"solver":` + r.solver + `,"topo":` + r.topo + r.rest + `,"graph":` + g + `}`,
			`{"topo":` + r.topo + r.rest + `,"graph":` + g + `,"solver":` + r.solver + `}`,
			"\n{ \"graph\" :\t" + g + " ,\r\n\"topo\": " + r.topo + ", \"solver\" : " + r.solver + r.rest + " }\n",
			`{"graph":` + g + `,"topo":` + r.topo + `,"solver":` + r.solver + r.rest + `}   `,
		}
	}
	return out
}

// TestAliasParity: sending the same bytes again must be answered exactly
// as a fresh server answers them the first time. Every wire-parity body
// and every key-order and whitespace variant of four valid requests goes
// three times to one server and once to a fresh server; status, body,
// X-DTServe-Address and X-DTServe-Cache (a first answer's "miss"
// standing for the "hit" of a repeat) must agree, and every variant of
// one request must be answered with the same body.
func TestAliasParity(t *testing.T) {
	bodies := map[string]string{}
	for name, body := range parityBodies() {
		bodies["parity/"+name] = body
	}
	variants := aliasVariants()
	for name, vs := range variants {
		for i, body := range vs {
			bodies[name+"/"+string(rune('a'+i))] = body
		}
	}
	names := make([]string, 0, len(bodies))
	for name := range bodies {
		names = append(names, name)
	}
	sort.Strings(names)

	newServer := func() *Server {
		svc, err := New(Config{CacheSize: 256, DefaultSolver: "hlf"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		return svc
	}
	fresh := map[string]answer{}
	for _, name := range names {
		fresh[name] = serveAnswer(newServer().Handler(), []byte(bodies[name]))
	}
	tag := func(a answer, first bool) string {
		if first && a.cache == "miss" {
			return "hit"
		}
		return a.cache
	}
	h := newServer().Handler()
	for round := 0; round < 3; round++ {
		for _, name := range names {
			got, want := serveAnswer(h, []byte(bodies[name])), fresh[name]
			if got.code != want.code || !bytes.Equal(got.body, want.body) || got.addr != want.addr ||
				tag(got, round == 0) != tag(want, true) {
				t.Errorf("%s, send %d: answered %d %s %q %s\nfresh server       %d %s %q %s", name, round+1,
					got.code, got.cache, got.addr, got.body, want.code, want.cache, want.addr, want.body)
			}
		}
	}
	for name, vs := range variants {
		want := fresh[name+"/a"]
		if want.code != http.StatusOK {
			t.Fatalf("%s: %d %s", name, want.code, want.body)
		}
		for i := range vs {
			if got := fresh[name+"/"+string(rune('a'+i))]; !bytes.Equal(got.body, want.body) || got.addr != want.addr {
				t.Errorf("%s variant %d answered %q %s, want %q %s", name, i, got.addr, got.body, want.addr, want.body)
			}
		}
	}
}

// spaced returns payload followed by n whitespace bytes spelling i in
// base 4: a body distinct for every i < 4^n that decodes exactly as
// payload does. It reuses buf's storage.
func spaced(buf, payload []byte, i, n int) []byte {
	buf = append(buf[:0], payload...)
	for d := 0; d < n; d++ {
		buf = append(buf, " \t\r\n"[i%4])
		i /= 4
	}
	return buf
}

// TestAliasHitCounters: the third send of the same bytes is answered by
// their alias — the second, a full-path memory hit, wrote it — and counts
// once as a memory hit and once as an alias hit, in /statsz and /metrics,
// with the conservation law intact.
func TestAliasHitCounters(t *testing.T) {
	svc, ts := newTestServer(t, Config{CacheSize: 64, DefaultSolver: "hlf"})
	payload := wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Solver = "hlf" })
	var first []byte
	for i, want := range []string{"miss", "hit", "hit"} {
		resp, body := post(t, ts.URL+"/v1/schedule", payload)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-DTServe-Cache") != want {
			t.Fatalf("send %d: %d %q, want 200 %q", i+1, resp.StatusCode, resp.Header.Get("X-DTServe-Cache"), want)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("send %d answered different bytes", i+1)
		}
		if got := svc.Stats().AliasHits; got != uint64(max(0, i-1)) {
			t.Fatalf("after send %d alias_hits = %d", i+1, got)
		}
	}
	st := getStats(t, ts.URL)
	if st.AliasHits != 1 || st.Cache.Hits != 2 || st.Solves != 1 || st.Items != 3 || st.Cache.Aliases != 1 {
		t.Fatalf("alias_hits %d, cache.hits %d, solves %d, items %d, aliases %d; want 1, 2, 1, 3, 1",
			st.AliasHits, st.Cache.Hits, st.Solves, st.Items, st.Cache.Aliases)
	}
	if st.Cache.Misses != 1 {
		t.Fatalf("cache.misses = %d, want 1: an alias probe counts no miss", st.Cache.Misses)
	}
	if m := metricsBody(t, ts.URL); !strings.Contains(m, "\ndtserve_alias_hits_total 1\n") {
		t.Fatal("/metrics lacks dtserve_alias_hits_total 1")
	}
}

// errAfter is a request body that delivers its bytes, then fails.
type errAfter struct{ r io.Reader }

func (e errAfter) Read(p []byte) (int, error) {
	if n, _ := e.r.Read(p); n > 0 {
		return n, nil
	}
	return 0, io.ErrUnexpectedEOF
}

// TestAliasNeverWritten: bytes whose full-path answer may not be replayed
// from their bytes alone get no alias, however often they are sent — a
// trace asked for in the body or the URL, nocache, a body the scanner
// declines, a read error, an error answer, and a server without a memory
// tier — and an aliased body whose URL asks for a trace takes the full
// path.
func TestAliasNeverWritten(t *testing.T) {
	valid := `{"graph":` + parityGraph + `,"topo":"ring:3","solver":"hlf"}`
	send := func(h http.Handler, target string, body io.Reader) answer {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, body))
		return answer{code: rec.Code, body: rec.Body.Bytes(), cache: rec.Header().Get("X-DTServe-Cache")}
	}
	cases := []struct {
		name   string
		size   int // memory tier entries
		target string
		body   func() io.Reader
		code   int
		last   string // the last send's cache tag
	}{
		{"body trace", 8, "/v1/schedule", func() io.Reader { return strings.NewReader(valid[:len(valid)-1] + `,"trace":true}`) }, 200, "hit"},
		{"url trace", 8, "/v1/schedule?trace=1", func() io.Reader { return strings.NewReader(valid) }, 200, "hit"},
		{"nocache", 8, "/v1/schedule", func() io.Reader { return strings.NewReader(valid[:len(valid)-1] + `,"nocache":true}`) }, 200, "miss"},
		{"scanner declined", 8, "/v1/schedule", func() io.Reader { return strings.NewReader(strings.Replace(valid, `"name":"a"`, `"name":"\u0061"`, 1)) }, 200, "hit"},
		{"read error", 8, "/v1/schedule", func() io.Reader { return errAfter{strings.NewReader(valid)} }, 200, "hit"},
		{"error answer", 8, "/v1/schedule", func() io.Reader { return strings.NewReader(strings.Replace(valid, "ring:3", "ring:0", 1)) }, 400, ""},
		{"no memory tier", 0, "/v1/schedule", func() io.Reader { return strings.NewReader(valid) }, 200, "miss"},
	}
	for _, tc := range cases {
		svc, err := New(Config{CacheSize: tc.size, DefaultSolver: "hlf"})
		if err != nil {
			t.Fatal(err)
		}
		h := svc.Handler()
		var a answer
		for i := 0; i < 4; i++ {
			if a = send(h, tc.target, tc.body()); a.code != tc.code {
				t.Fatalf("%s, send %d: %d %s, want %d", tc.name, i+1, a.code, a.body, tc.code)
			}
		}
		if a.cache != tc.last {
			t.Errorf("%s: last send answered %q, want %q", tc.name, a.cache, tc.last)
		}
		if st := svc.Stats(); st.AliasHits != 0 || st.Cache.Aliases != 0 {
			t.Errorf("%s: alias_hits %d, aliases %d; want none", tc.name, st.AliasHits, st.Cache.Aliases)
		}
		svc.Close()
	}

	svc, err := New(Config{CacheSize: 8, DefaultSolver: "hlf"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	for i := 0; i < 3; i++ {
		send(h, "/v1/schedule", strings.NewReader(valid))
	}
	if n := svc.Stats().AliasHits; n != 1 {
		t.Fatalf("alias_hits = %d after three sends, want 1", n)
	}
	a := send(h, "/v1/schedule?trace=1", strings.NewReader(valid))
	var env tracedEnvelope
	if err := json.Unmarshal(a.body, &env); err != nil || env.Trace == nil {
		t.Fatalf("aliased body with ?trace=1 answered without a trace block: %v %s", err, a.body)
	}
	if got := depth0Stages(env.Trace); fmt.Sprint(got) != fmt.Sprint([]string{"decode", "canonicalize", "mem_tier"}) {
		t.Fatalf("aliased body with ?trace=1 took stages %v, want the full path's", got)
	}
	if n := svc.Stats().AliasHits; n != 1 {
		t.Fatalf("alias_hits = %d after a traced send, want 1", n)
	}
}

// TestAliasEvictedTargetCountsOneMiss: an alias whose entry was evicted
// answers nothing and is dropped, so its bytes sent again take the full
// path — which misses the memory tier exactly once, not once on the alias
// probe and again on the full lookup.
func TestAliasEvictedTargetCountsOneMiss(t *testing.T) {
	svc, err := New(Config{CacheSize: 1, DefaultSolver: "hlf"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	a := []byte(`{"graph":` + parityGraph + `,"topo":"ring:3"}`)
	b := []byte(`{"graph":` + parityGraph + `,"topo":"ring:3","seed":2}`)
	for _, body := range [][]byte{a, a, a} {
		if code, resp := serve(h, body); code != http.StatusOK {
			t.Fatalf("%d %s", code, resp)
		}
	}
	if st := svc.Stats(); st.AliasHits != 1 || st.Cache.Aliases != 1 {
		t.Fatalf("alias_hits %d, aliases %d before the eviction; want 1, 1", st.AliasHits, st.Cache.Aliases)
	}
	if code, resp := serve(h, b); code != http.StatusOK { // a miss that evicts a's entry
		t.Fatalf("%d %s", code, resp)
	}
	before := svc.Stats()
	got := serveAnswer(h, a)
	after := svc.Stats()
	if got.code != http.StatusOK || got.cache != "miss" {
		t.Fatalf("evicted target answered %d %q, want 200 miss", got.code, got.cache)
	}
	if d := after.Cache.Misses - before.Cache.Misses; d != 1 {
		t.Fatalf("cache.misses grew by %d, want exactly 1", d)
	}
	if after.AliasHits != 1 || after.Cache.Aliases != 0 {
		t.Fatalf("alias_hits %d, aliases %d; want 1, 0: the probe drops the alias of an evicted entry",
			after.AliasHits, after.Cache.Aliases)
	}
}

// TestAliasSkipsWarmHits: with WarmStart on, a near-miss request is
// answered from the warm key of the neighbour the similarity index picks,
// which is not a function of its bytes alone, so a warm hit writes no
// alias. The first send is warm-solved; from then on the full path
// answers every repeat as a warm hit, and each must keep its
// X-DTServe-Warm header, address and body.
func TestAliasSkipsWarmHits(t *testing.T) {
	svc, err := New(Config{CacheSize: 64, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	g, err := cliutil.BuildProgram("FFT")
	if err != nil {
		t.Fatal(err)
	}
	g.SetLoad(0, g.Load(0)+2)
	nearMiss := wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Graph = g })
	if a := serveAnswer(h, wireRequest(t, "FFT", nil)); a.code != http.StatusOK {
		t.Fatalf("base: %d %s", a.code, a.body)
	}
	type warmAnswer struct {
		answer
		warm string // X-DTServe-Warm
	}
	const sends = 16
	first := -1 // the first warm hit
	var hit warmAnswer
	for i := 0; i < sends; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(nearMiss)))
		a := warmAnswer{answer{code: rec.Code, body: rec.Body.Bytes(), cache: rec.Header().Get("X-DTServe-Cache"),
			addr: rec.Header().Get("X-DTServe-Address")}, rec.Header().Get("X-DTServe-Warm")}
		if a.code != http.StatusOK || a.warm == "" {
			t.Fatalf("send %d: %d %s, X-DTServe-Warm %q; want 200 and a warm start", i+1, a.code, a.cache, a.warm)
		}
		switch {
		case first < 0 && a.cache == "hit":
			first, hit = i, a
		case first >= 0 && (a.cache != "hit" || a.warm != hit.warm || a.addr != hit.addr || !bytes.Equal(a.body, hit.body)):
			t.Fatalf("send %d answered %s warm=%q %q, want send %d's hit warm=%q %q and its body",
				i+1, a.cache, a.warm, a.addr, first+1, hit.warm, hit.addr)
		}
	}
	if first < 0 || first > sends-3 {
		t.Fatalf("first warm hit at send %d of %d, want at least two repeats after it", first+1, sends)
	}
	t.Logf("first warm hit at send %d", first+1)
	if st := svc.Stats(); st.AliasHits != 0 || st.Cache.Aliases != 0 {
		t.Fatalf("alias_hits %d, aliases %d; want none for warm hits", st.AliasHits, st.Cache.Aliases)
	}
}

// TestAliasBound: 10 000 distinct aliasable variants of one request leave
// at most the cache's entry bound of aliases, the newest kept.
func TestAliasBound(t *testing.T) {
	const size = 8
	svc, err := New(Config{CacheSize: size, DefaultSolver: "hlf"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	payload := []byte(`{"graph":` + parityGraph + `,"topo":"ring:3"}`)
	serve(h, payload)
	var buf []byte
	for i := 0; i < 10000; i++ {
		buf = spaced(buf, payload, i, 7)
		if a := serveAnswer(h, buf); a.code != http.StatusOK || a.cache != "hit" {
			t.Fatalf("variant %d: %d %q", i, a.code, a.cache)
		}
	}
	st := svc.Stats()
	if st.Cache.Aliases != size || st.AliasHits != 0 {
		t.Fatalf("%d aliases (alias_hits %d) after 10000 variants, want the entry bound %d (0)", st.Cache.Aliases, st.AliasHits, size)
	}
	serveAnswer(h, spaced(buf, payload, 9999, 7))
	serveAnswer(h, spaced(buf, payload, 0, 7))
	if n := svc.Stats().AliasHits; n != 1 {
		t.Fatalf("alias_hits = %d, want 1: the newest variant aliased, the oldest dropped", n)
	}
}

// TestCacheAliasLifecycle drives the alias structure directly: the
// bound drops the least recently used alias, an alias whose entry was
// evicted answers nothing and is dropped by the probe, alias probes count
// hits but never misses, and an alias to an absent or in-flight key is
// never answered.
func TestCacheAliasLifecycle(t *testing.T) {
	c := NewCache(3, 0)
	sum := func(i byte) *[sha256.Size]byte { return &[sha256.Size]byte{i} }
	get := func(i byte) string {
		_, key, _, ok := c.getAlias(sum(i), nil)
		if !ok {
			return ""
		}
		return key
	}
	c.Put("k1", []byte("1"))
	c.Put("k2", []byte("2"))
	c.putAlias(sum(1), "k1", "interactive")
	c.putAlias(sum(2), "k1", "batch")
	c.putAlias(sum(3), "k2", "interactive")
	c.putAlias(sum(9), "absent", "interactive")
	c.putAlias(sum(4), "k2", "interactive") // at the bound: drops sum 1
	if st := c.Stats(); st.Aliases != 3 {
		t.Fatalf("%d aliases, want the bound 3", st.Aliases)
	}
	if get(1) != "" || get(9) != "" || get(2) != "k1" || get(3) != "k2" || get(4) != "k2" {
		t.Fatal("aliases resolve wrongly after the bound dropped one")
	}
	if val, _, lane, _ := c.getAlias(sum(2), nil); string(val) != "1" || lane != "batch" {
		t.Fatalf("alias answered %q on lane %q", val, lane)
	}
	if _, _, _, ok := c.getAlias(sum(2), map[string]*flight{"k1": nil}); ok {
		t.Fatal("an alias answered for a key with a solve in flight")
	}
	c.Put("k1", []byte("1")) // most recent: k2 is now the LRU entry
	c.Put("k3", []byte("3"))
	c.Put("k4", []byte("4")) // evicts k2, which aliases 3 and 4 name
	if get(3) != "" || get(4) != "" || get(2) != "k1" {
		t.Fatal("an alias answered for an evicted entry")
	}
	if st := c.Stats(); st.Aliases != 1 {
		t.Fatalf("after probing the aliases of evicted k2: %d aliases, want only alias 2", st.Aliases)
	}
	c.Put("k5", []byte("5"))
	c.Put("k6", []byte("6"))
	c.Put("k7", []byte("7")) // k1 goes
	st := c.Stats()
	if get(2) != "" || c.Stats().Aliases != 0 {
		t.Fatalf("alias 2 outlived its entry: %d aliases", c.Stats().Aliases)
	}
	if st.Misses != 0 || st.Hits != 5 {
		t.Fatalf("hits %d, misses %d; want 5 alias hits and no misses", st.Hits, st.Misses)
	}
	var disabled *Cache
	disabled.putAlias(sum(1), "k", "interactive")
	if _, _, _, ok := disabled.getAlias(sum(1), nil); ok {
		t.Fatal("a disabled cache answered an alias")
	}
}

// TestAliasTracing: the sampler is consulted once per request, alias hit
// or not, and a sampled alias hit records the decode stage (read and
// hash) and the mem_tier stage, noted as an alias.
func TestAliasTracing(t *testing.T) {
	svc, ts := newTestServer(t, Config{CacheSize: 64, DefaultSolver: "hlf", TraceSample: 2, TraceRecent: 64})
	payload := []byte(`{"graph":` + parityGraph + `,"topo":"ring:3"}`)
	var buf []byte
	for i := 0; i < 10; i++ { // each probes the alias and misses
		post(t, ts.URL+"/v1/schedule", spaced(buf, payload, i, 2))
	}
	for i := 0; i < 10; i++ { // a full-path hit, then nine alias hits
		post(t, ts.URL+"/v1/schedule", payload)
	}
	st := getStats(t, ts.URL)
	if st.AliasHits != 9 {
		t.Fatalf("alias_hits = %d, want 9", st.AliasHits)
	}
	if st.Traces != 10 {
		t.Fatalf("%d of 20 requests traced at 1 in 2, want 10: the sampler must be consulted once per request", st.Traces)
	}

	svc.sampler.SetEvery(1)
	resp, _ := post(t, ts.URL+"/v1/schedule", payload)
	id := resp.Header.Get("X-DTServe-Trace-Id")
	var ring obs.RingSnapshot
	if err := json.Unmarshal([]byte(getBody(t, ts.URL+"/debug/requests")), &ring); err != nil {
		t.Fatal(err)
	}
	td := ring.Recent[0]
	if td.ID != id {
		t.Fatalf("most recent trace %q, want the alias hit's %q", td.ID, id)
	}
	if got := depth0Stages(td); fmt.Sprint(got) != fmt.Sprint([]string{obs.StageDecode, obs.StageMemTier}) {
		t.Fatalf("alias hit stages = %v, want [decode mem_tier]", got)
	}
	if td.Stages[1].Notes["alias"] != "true" || td.Notes["cache"] != "hit" {
		t.Fatalf("alias hit notes: stage %v, trace %v", td.Stages[1].Notes, td.Notes)
	}
	if sum := td.Stages[0].DurNS + td.Stages[1].DurNS; sum > td.TotalNS {
		t.Fatalf("stages sum to %dns, more than the total %dns", sum, td.TotalNS)
	}
}

// TestAliasHitAllocs pins the in-process alias hit's allocation budget:
// handler entry to cached body written, for the benchmark's FFT request.
// It measured 18, against 31 for the full decode (TestWarmHitAllocs),
// nearly all of them the recorder, the logging wrapper and header
// values; the bound leaves room for the pool misses of a busy test
// binary.
func TestAliasHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race randomly drops sync.Pool items, so pooled scratch is reallocated")
	}
	svc, err := New(Config{CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	payload := wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Solver = "hlf"; r.Restarts = 0 })
	for _, want := range []string{"miss", "hit"} {
		if a := serveAnswer(h, payload); a.code != http.StatusOK || a.cache != want {
			t.Fatalf("warm-up: %d %q %s", a.code, a.cache, a.body)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", nil)
	rd := bytes.NewReader(payload)
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(payload)
		req.Body = io.NopCloser(rd)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-DTServe-Cache") != "hit" {
			t.Fatalf("status %d, cache %q", rec.Code, rec.Header().Get("X-DTServe-Cache"))
		}
	})
	if n := svc.Stats().AliasHits; n != 101 {
		t.Fatalf("alias_hits = %d, want every one of the 101 runs", n)
	}
	if allocs > 21 {
		t.Errorf("alias hit allocates %.0f times, want <= 21", allocs)
	}
	t.Logf("alias hit: %.0f allocs", allocs)
}

// FuzzAliasMatchesFullPath: arbitrary bytes sent three times to one
// long-lived server — the second send writes the alias of a memory hit,
// the third may be answered from it — and once to a fresh server must
// get the same status and, where the answer is a pure function of the
// request, the same body: an alias never answers for other bytes than
// its own.
func FuzzAliasMatchesFullPath(f *testing.F) {
	for _, body := range parityBodies() {
		f.Add([]byte(body))
	}
	for _, vs := range aliasVariants() {
		for _, body := range vs {
			f.Add([]byte(body))
		}
	}
	cfg := Config{CacheSize: 64, DefaultSolver: "hlf", Workers: 1}
	svc, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(svc.Close)
	h := svc.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		var got [3]answer
		for i := range got {
			got[i] = serveAnswer(h, body)
		}
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := serveAnswer(fresh.Handler(), body)
		fresh.Close()
		for _, a := range append(got[:], want) {
			if a.code >= 500 {
				return // a deadline or shed verdict is timing, not a function of the bytes
			}
		}
		// A portfolio cut short by a deadline answers with whatever its
		// members had by then.
		var rq rawRequest
		pure := json.NewDecoder(bytes.NewReader(body)).Decode(&rq) != nil ||
			(rq.TimeoutMS <= 0 && rq.MemberTimeoutMS <= 0)
		for i, a := range got {
			if a.code != want.code || (pure && !bytes.Equal(a.body, want.body)) {
				t.Fatalf("send %d answered %d %s, fresh server %d %s", i+1, a.code, a.body, want.code, want.body)
			}
			if a.cache == "hit" && a.addr != want.addr {
				t.Fatalf("send %d answered from %q, fresh server from %q", i+1, a.addr, want.addr)
			}
		}
		if got[2].cache == "hit" && !bytes.Equal(got[2].body, got[1].body) {
			t.Fatalf("repeat hits answered different bytes:\n%s\n%s", got[1].body, got[2].body)
		}
	})
}

// TestAliasConcurrent races alias probes, alias writes and evictions: 8
// clients send 6 requests, as exact repeats and as whitespace variants,
// to a 4-entry memory tier, and every answer must be its own request's
// bytes.
func TestAliasConcurrent(t *testing.T) {
	const requests, clients, rounds = 6, 8, 40
	payloads := make([][]byte, requests)
	want := make([][]byte, requests)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf(`{"graph":%s,"topo":"ring:3","seed":%d}`, parityGraph, i))
		ref, err := New(Config{CacheSize: 1, DefaultSolver: "hlf"})
		if err != nil {
			t.Fatal(err)
		}
		a := serveAnswer(ref.Handler(), payloads[i])
		ref.Close()
		if a.code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, a.code, a.body)
		}
		want[i] = a.body
	}
	svc, err := New(Config{CacheSize: 4, DefaultSolver: "hlf"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf []byte
			for n := 0; n < rounds; n++ {
				i := (c + n) % requests
				body := payloads[i]
				if n%3 == 0 {
					buf = spaced(buf, body, c*rounds+n, 6)
					body = buf
				}
				if a := serveAnswer(h, body); a.code != http.StatusOK || !bytes.Equal(a.body, want[i]) {
					t.Errorf("client %d, request %d: %d %s", c, i, a.code, a.body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := svc.Stats()
	if st.Cache.Aliases > 4 || st.AliasHits > st.Cache.Hits {
		t.Fatalf("%d aliases, %d alias hits of %d memory hits", st.Cache.Aliases, st.AliasHits, st.Cache.Hits)
	}
	if got := st.Solves + st.Cache.Hits + st.Coalesced; got != st.Items {
		t.Fatalf("solves %d + memory hits %d + coalesced %d != items %d", st.Solves, st.Cache.Hits, st.Coalesced, st.Items)
	}
	t.Logf("%d items: %d solves, %d memory hits (%d by alias), %d coalesced", st.Items, st.Solves, st.Cache.Hits, st.AliasHits, st.Coalesced)
}
