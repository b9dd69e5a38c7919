package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cliutil"
)

// The tier ladder: one benchmark per way a schedule request can be
// answered, POSTed over real HTTP so the numbers are end-to-end
// (§8 of PERFORMANCE.md quotes them). Cold uses the cheap hlf solver, so
// the gap shown is the serving floor — an annealing solve is orders of
// magnitude above it.

func benchPayload(b *testing.B, nocache bool) []byte {
	b.Helper()
	g, err := cliutil.BuildProgram("FFT")
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(ScheduleRequest{
		Graph: g, Topo: "hypercube:3", Solver: "hlf", NoCache: nocache,
	})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func benchPost(b *testing.B, url string, payload []byte, wantStatus string) {
	b.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		b.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-DTServe-Cache"); got != wantStatus {
		b.Fatalf("cache status %q, want %q", got, wantStatus)
	}
}

// BenchmarkServeMemoryHit: warm key answered from the in-memory LRU.
func BenchmarkServeMemoryHit(b *testing.B) {
	svc, err := New(Config{CacheSize: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	payload := benchPayload(b, false)
	benchPost(b, ts.URL+"/v1/schedule", payload, "miss") // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/schedule", payload, "hit")
	}
}

// BenchmarkWarmHitHTTP: the warm-hit floor without the loopback-TCP tax —
// the request goes straight into the HTTP handler with an in-process
// recorder, so the number is decode + fused canonicalize/key + memory-tier
// get + response write. This is the path the zero-copy wire work bounds:
// allocations here are the request's true steady-state cost. Every
// iteration sends the payload with its own whitespace suffix, bytes no
// alias has seen, so each one takes the full decode (and writes an alias,
// the cache's bound recycling the oldest).
func BenchmarkWarmHitHTTP(b *testing.B) {
	benchWarmHit(b, func(payload, buf []byte, i int) []byte { return spaced(buf, payload, i, 10) }, 0)
}

// BenchmarkWarmHitHTTPAlias: the same warm hit for bytes already answered
// once — read, hash, alias probe and response write, with no decode.
func BenchmarkWarmHitHTTPAlias(b *testing.B) {
	benchWarmHit(b, func(payload, _ []byte, _ int) []byte { return payload }, 1)
}

// benchWarmHit times warm hits on the bodies body(payload, buf, i) makes,
// checking each is a memory hit and wantAlias of them alias hits.
func benchWarmHit(b *testing.B, body func(payload, buf []byte, i int) []byte, wantAlias uint64) {
	svc, err := New(Config{CacheSize: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	payload := benchPayload(b, false)
	for i := 0; i < 2; i++ { // a miss, then a full-path hit that aliases payload
		wrec := httptest.NewRecorder()
		h.ServeHTTP(wrec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(payload)))
		if wrec.Code != http.StatusOK {
			b.Fatalf("warmup status %d: %s", wrec.Code, wrec.Body.String())
		}
	}
	buf := make([]byte, 0, len(payload)+16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body(payload, buf, i)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
		if got := rec.Header().Get("X-DTServe-Cache"); got != "hit" {
			b.Fatalf("cache status %q, want \"hit\"", got)
		}
	}
	b.StopTimer()
	if got := svc.Stats().AliasHits; got != wantAlias*uint64(b.N) {
		b.Fatalf("%d alias hits in %d iterations", got, b.N)
	}
}

// BenchmarkServeDiskHit: warm key answered from the persistent tier
// (memory tier disabled so every request reads, verifies and decodes the
// on-disk entry).
func BenchmarkServeDiskHit(b *testing.B) {
	svc, err := New(Config{CacheSize: 0, CacheDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	payload := benchPayload(b, false)
	benchPost(b, ts.URL+"/v1/schedule", payload, "miss")
	// The write is behind a queue; wait for durability before timing.
	for deadline := time.Now().Add(5 * time.Second); ; {
		st := diskOf(svc).Stats()
		if st.Writes >= 1 {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("disk write never landed: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/schedule", payload, "disk")
	}
}

// The direct tier costs, without the ~1 ms loopback-HTTP floor that
// dominates the Serve* numbers above.

func BenchmarkMemoryTierGet(b *testing.B) {
	c := NewCache(16, 0)
	val := bytes.Repeat([]byte("x"), 8<<10) // ~a wire Result body
	c.Put("k", val)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get("k"); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkMemoryTierPutEvict stores a new answer in a full memory tier
// of the benchmark server's size, so every Put inserts one entry and
// evicts the least recently used: each cold_solve answer's tier cost.
// Keys cycle through twice the entry bound, so none is still cached when
// it comes round again.
func BenchmarkMemoryTierPutEvict(b *testing.B) {
	const entries = 4096
	c := NewCache(entries, 0)
	val := bytes.Repeat([]byte("x"), 8<<10)
	keys := make([]string, 2*entries)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	for _, k := range keys[entries:] {
		c.Put(k, val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(keys[i%len(keys)], val)
	}
	if st := c.Stats(); st.Entries != entries {
		b.Fatalf("cache holds %d entries, want %d", st.Entries, entries)
	}
}

func BenchmarkDiskTierGet(b *testing.B) {
	d, err := NewDiskCache(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	val := bytes.Repeat([]byte("x"), 8<<10)
	d.Put("ab01", val)
	for deadline := time.Now().Add(5 * time.Second); d.Stats().Writes < 1; {
		if time.Now().After(deadline) {
			b.Fatal("write never landed")
		}
		time.Sleep(time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Get("ab01"); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkServeColdSolve: every request runs the (cheap) hlf solver.
func BenchmarkServeColdSolve(b *testing.B) {
	svc, err := New(Config{CacheSize: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	payload := benchPayload(b, true) // NoCache: solve every time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/schedule", payload, "miss")
	}
}
