package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/solver"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// diskOf returns the server's concrete disk tier: the first rung of a
// server configured with a CacheDir and no WrapTier.
func diskOf(svc *Server) *DiskCache {
	return svc.rungs[0].tier.(*DiskCache)
}

// startServer creates a server + HTTP listener without tying their
// shutdown to the test end, so restart tests can stop one instance and
// start another over the same cache directory mid-test. The returned
// stop function is idempotent.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server, func()) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	stop := func() {
		ts.Close()
		svc.Close()
	}
	t.Cleanup(stop)
	return svc, ts, stop
}

// diskPayloads returns distinct cacheable request bodies (cheap list
// solver, distinct programs/seeds so every payload is its own cache key).
func diskPayloads(t *testing.T, n int) [][]byte {
	t.Helper()
	programs := []string{"FFT", "NE", "GJ"}
	out := make([][]byte, n)
	for i := range out {
		g, err := cliutil.BuildProgram(programs[i%len(programs)])
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(ScheduleRequest{
			Graph:  g,
			Topo:   "hypercube:3",
			Solver: "hlf",
			Seed:   int64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = body
	}
	return out
}

// TestWarmRestartServesFromDisk is the tentpole's proof test: a second
// server started on the same cache directory must replay every
// previously solved graph byte-identically from the disk tier — zero
// solver invocations, X-DTServe-Cache: disk — and promote each hit into
// its memory tier.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	payloads := diskPayloads(t, 3)

	svc1, ts1, stop1 := startServer(t, Config{CacheSize: 64, CacheDir: dir})
	bodies := make([][]byte, len(payloads))
	for i, p := range payloads {
		resp, body := post(t, ts1.URL+"/v1/schedule", p)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-DTServe-Cache"); got != "miss" {
			t.Fatalf("cold request %d reported cache=%q", i, got)
		}
		bodies[i] = body
	}
	if st := svc1.Stats(); st.Solves != uint64(len(payloads)) {
		t.Fatalf("first server solves=%d, want %d", st.Solves, len(payloads))
	}
	stop1() // drains the write-behind queue: entries are durable now

	svc2, ts2, _ := startServer(t, Config{CacheSize: 64, CacheDir: dir})
	for i, p := range payloads {
		resp, body := post(t, ts2.URL+"/v1/schedule", p)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm request %d: status %d: %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-DTServe-Cache"); got != "disk" {
			t.Fatalf("warm request %d reported cache=%q, want disk", i, got)
		}
		if !bytes.Equal(bodies[i], body) {
			t.Fatalf("restarted server body %d differs from the original solve", i)
		}
	}
	st := svc2.Stats()
	if st.Solves != 0 || st.Pool.Completed != 0 {
		t.Fatalf("restarted server invoked a solver: solves=%d pool=%d", st.Solves, st.Pool.Completed)
	}
	if st.Disk.Hits != uint64(len(payloads)) {
		t.Fatalf("disk hits=%d, want %d", st.Disk.Hits, len(payloads))
	}
	if len(st.BySolver) != 0 {
		t.Fatalf("restarted server recorded solver executions: %v", st.BySolver)
	}

	// Disk hits were promoted: the same payload now hits the memory tier.
	resp, body := post(t, ts2.URL+"/v1/schedule", payloads[0])
	if got := resp.Header.Get("X-DTServe-Cache"); got != "hit" {
		t.Fatalf("promoted entry reported cache=%q, want hit (body %s)", got, body)
	}
	if !bytes.Equal(bodies[0], body) {
		t.Fatal("memory-promoted body differs from the original solve")
	}
}

// TestServerDeletesCorruptDiskEntries is the crash-safety test: a
// truncated entry, a checksum-corrupted entry and a wrong-version entry
// planted in the cache dir must each be detected and deleted, the
// request re-solved, and disk_errors bumped — corrupt bytes are never
// served.
func TestServerDeletesCorruptDiskEntries(t *testing.T) {
	dir := t.TempDir()
	payloads := diskPayloads(t, 3)

	// Solve once to learn the genuine entries, then vandalize them.
	svc1, ts1, stop1 := startServer(t, Config{CacheSize: 64, CacheDir: dir})
	var bodies [][]byte
	var keys []string
	for _, p := range payloads {
		resp, body := post(t, ts1.URL+"/v1/schedule", p)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("setup solve failed: %d %s", resp.StatusCode, body)
		}
		bodies = append(bodies, body)
	}
	disk := diskOf(svc1)
	stop1()
	for _, key := range disk.entries.Keys() {
		keys = append(keys, key)
	}
	if len(keys) != 3 {
		t.Fatalf("expected 3 disk entries, found %d", len(keys))
	}

	vandalize := []func([]byte) []byte{
		func(b []byte) []byte { return b[:len(b)/2] }, // truncated
		func(b []byte) []byte { // checksum mismatch
			c := bytes.Clone(b)
			c[len(c)-1] ^= 0xff
			return c
		},
		func(b []byte) []byte { // stale format version
			c := bytes.Clone(b)
			c[3] = 0xee
			return c
		},
	}
	for i, key := range keys {
		raw, err := os.ReadFile(disk.path(key))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(disk.path(key), vandalize[i](raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	svc2, ts2, stop2 := startServer(t, Config{CacheSize: 64, CacheDir: dir})
	for i, p := range payloads {
		resp, body := post(t, ts2.URL+"/v1/schedule", p)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("re-solve %d: status %d: %s", i, resp.StatusCode, body)
		}
		// Detection downgrades the request to a normal miss: re-solved,
		// never served from the bad entry.
		if got := resp.Header.Get("X-DTServe-Cache"); got != "miss" {
			t.Fatalf("request %d over a corrupt entry reported cache=%q", i, got)
		}
		if !bytes.Equal(bodies[i], body) {
			t.Fatalf("re-solved body %d differs from the original (determinism broken)", i)
		}
	}
	st := svc2.Stats()
	if st.Disk.Errors != 3 {
		t.Fatalf("disk errors=%d, want 3 (one per vandalized entry)", st.Disk.Errors)
	}
	if st.Solves != 3 {
		t.Fatalf("solves=%d, want 3 re-solves", st.Solves)
	}
	stop2() // flush the replacement writes

	// The corrupt entries were replaced by good ones: a third server
	// serves all three from disk.
	svc3, ts3, _ := startServer(t, Config{CacheSize: 64, CacheDir: dir})
	for i, p := range payloads {
		resp, body := post(t, ts3.URL+"/v1/schedule", p)
		if got := resp.Header.Get("X-DTServe-Cache"); got != "disk" {
			t.Fatalf("healed entry %d reported cache=%q, want disk", i, got)
		}
		if !bytes.Equal(bodies[i], body) {
			t.Fatalf("healed body %d differs", i)
		}
	}
	if st := svc3.Stats(); st.Solves != 0 || st.Disk.Errors != 0 {
		t.Fatalf("healed dir still errored: %+v", st.Disk)
	}
}

// TestDiskTierConservationUnderConcurrency hammers one server with
// concurrent identical and distinct requests — the memory tier sized to
// thrash and the disk tier sized to fill and evict — and checks the
// extended conservation law
//
//	solves + mem_hits + disk_hits + coalesced == requests
//
// plus the rule that a Raced portfolio result is never written to either
// tier. Run under -race in CI.
func TestDiskTierConservationUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	// Memory: 2 entries for ~6 hot keys, so the memory tier constantly
	// evicts and the disk tier serves re-reads. Disk: a few KiB so it
	// also evicts while filling.
	svc, ts, stop := startServer(t, Config{
		CacheSize:      2,
		CacheDir:       dir,
		DiskCacheBytes: 8 << 10,
	})

	payloads := diskPayloads(t, 6)

	// A portfolio on independent equal tasks without communication hits
	// the makespan lower bound immediately: the result is Raced
	// (early-cancelled) and must never be memoized in any tier.
	g := taskgraph.New("independent")
	for i := 0; i < 6; i++ {
		g.AddTask(fmt.Sprintf("t%d", i), 5)
	}
	racedReq := ScheduleRequest{Graph: g, Topo: "hypercube:3", Solver: "portfolio", NoComm: true}
	racedPayload, err := json.Marshal(racedReq)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([][]byte{}, payloads...), racedPayload)

	const workers = 8
	const rounds = 3
	var okCount, reqCount int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range all {
					// Stagger the order per worker so identical requests
					// overlap (coalescing) and distinct ones interleave.
					p := all[(i+w)%len(all)]
					resp, body := post(t, ts.URL+"/v1/schedule", p)
					mu.Lock()
					reqCount++
					if resp.StatusCode == http.StatusOK {
						okCount++
					} else {
						t.Errorf("worker %d: status %d: %s", w, resp.StatusCode, body)
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	st := svc.Stats()
	got := st.Solves + st.Cache.Hits + st.Disk.Hits + st.Coalesced
	if got != uint64(okCount) {
		t.Fatalf("conservation law violated: solves %d + mem hits %d + disk hits %d + coalesced %d = %d, want %d",
			st.Solves, st.Cache.Hits, st.Disk.Hits, st.Coalesced, got, okCount)
	}
	if st.Disk.Writes == 0 {
		t.Fatal("disk tier never filled")
	}
	if st.Disk.Evictions == 0 {
		t.Fatal("disk tier never evicted (budget not exercised)")
	}
	if st.Disk.Errors != 0 {
		t.Fatalf("disk tier errored under concurrency: %+v", st.Disk)
	}

	// Drain the write-behind queue, then prove the Raced key reached
	// neither tier.
	stop()
	topo, err := cliutil.ParseTopology(racedReq.Topo)
	if err != nil {
		t.Fatal(err)
	}
	slv, err := solver.Get("portfolio")
	if err != nil {
		t.Fatal(err)
	}
	comm := topology.DefaultCommParams().NoComm()
	key, err := cacheKey(g, topo.Name(), comm, slv.Name(), saDefaults(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	svc.cache.mu.Lock()
	_, inMem := svc.cache.items.Peek(key)
	svc.cache.mu.Unlock()
	if inMem {
		t.Fatal("raced portfolio result found in the memory tier")
	}
	dc := diskOf(svc)
	dc.mu.Lock()
	_, inDisk := dc.entries.Peek(key)
	dc.mu.Unlock()
	if inDisk {
		t.Fatal("raced portfolio result found in the disk tier index")
	}
	if _, err := os.Stat(dc.path(key)); !os.IsNotExist(err) {
		t.Fatalf("raced portfolio result found on disk (err=%v)", err)
	}
}
