package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machsim"
	"repro/internal/programs"
	"repro/internal/remotecache"
	"repro/internal/service"
	"repro/internal/solver"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("disk-err=0.2,disk-delay=5ms,solver-err=0.1,solver-delay=1ms,solver-jitter=0.5,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{Seed: 7, DiskErrRate: 0.2, DiskDelay: 5 * time.Millisecond,
		SolverErrRate: 0.1, SolverDelay: time.Millisecond, SolverJitter: 0.5}
	if cfg != want {
		t.Fatalf("cfg = %+v, want %+v", cfg, want)
	}
	if cfg, err := ParseSpec(" disk-err=1 "); err != nil || cfg.DiskErrRate != 1 {
		t.Fatalf("minimal spec: %+v, %v", cfg, err)
	}
	for _, bad := range []string{
		"", "disk-err", "disk-err=1.5", "disk-err=-0.1", "disk-delay=-5ms",
		"disk-delay=fast", "seed=x", "turbulence=9", "solver-err=NaN",
		"solver-jitter=2", "solver-jitter=NaN",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// buildGraph returns a benchmark program graph for wire requests.
func buildGraph(t *testing.T, key string) *taskgraph.Graph {
	t.Helper()
	prog, err := programs.ByKey(key)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Build()
}

// payload marshals one schedule request for program key and seed.
func payload(t *testing.T, key string, seed int64) []byte {
	t.Helper()
	body, err := json.Marshal(service.ScheduleRequest{
		Graph:  buildGraph(t, key),
		Topo:   "hypercube:3",
		Solver: "hlf",
		Seed:   seed,
	})
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

// checkLaw asserts the conservation law on a stats snapshot.
func checkLaw(t *testing.T, st service.Stats) {
	t.Helper()
	if err := service.CheckLaw(st); err != nil {
		t.Fatal(err)
	}
}

// tierFaultFallsBack is the graceful-degradation proof for one ladder
// rung. A healthy replica warms the disk tier and the dtcached daemon,
// then a restarted replica has every read of the named rung faulted (and
// slowed). The faulted rung must degrade to the next one — disk to
// remote, remote to a fresh solve — answering 200 with the byte-identical
// body; the faults land in the rung's Errors, and the conservation law
// holds. warmDisk restarts on the warmed directory (else a cold one);
// wantTag is the cache tag of the rung below the faulted one.
func tierFaultFallsBack(t *testing.T, rung string, warmDisk bool, wantTag string) {
	t.Helper()
	cached, addr := startCached(t)
	dir := t.TempDir()
	body := payload(t, "FFT", 2024)

	// Warm both rungs with a healthy replica, then stop it (Close drains
	// the write-behind queues, so both entries are durable).
	svc1, err := service.New(service.Config{CacheSize: 64, CacheDir: dir, DefaultSolver: "hlf", RemoteAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(svc1.Handler())
	resp, want := post(t, ts1.URL+"/v1/schedule", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm solve: %d %s", resp.StatusCode, want)
	}
	ts1.Close()
	svc1.Close()
	if cached.Stats().Entries == 0 {
		t.Fatal("warm replica published nothing to the daemon")
	}

	restartDir := dir
	if !warmDisk {
		restartDir = t.TempDir()
	}
	var tier *Tier
	svc2, err := service.New(service.Config{
		CacheSize: 64, CacheDir: restartDir, DefaultSolver: "hlf", RemoteAddr: addr,
		WrapTier: func(name string, under service.Tier) service.Tier {
			if name != rung {
				return under
			}
			tier = NewTier(name, under, Config{DiskErrRate: 1, RemoteErrRate: 1,
				DiskDelay: time.Millisecond, RemoteDelay: time.Millisecond, Seed: 3})
			return tier
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(svc2.Handler())
	defer ts2.Close()
	defer svc2.Close()

	resp, got := post(t, ts2.URL+"/v1/schedule", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faulted-%s request: %d %s", rung, resp.StatusCode, got)
	}
	if tag := resp.Header.Get("X-DTServe-Cache"); tag != wantTag {
		t.Fatalf("faulted %s read reported cache=%q, want %q", rung, tag, wantTag)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fallback body differs from the healthy body (determinism broken)")
	}

	gets, _ := tier.Injected()
	if gets == 0 {
		t.Fatalf("no %s read fault was injected", rung)
	}
	st := svc2.Stats()
	faulted := st.Disk
	if rung == "remote" {
		faulted = st.Remote
	}
	if faulted.Errors < gets {
		t.Fatalf("%s errors %d do not include the %d injected faults", rung, faulted.Errors, gets)
	}
	if faulted.Hits != 0 {
		t.Fatalf("faulted %s tier reported %d hits", rung, faulted.Hits)
	}
	checkLaw(t, st)
}

// TestDiskFaultFallsBackToSolve: a warm disk entry whose reads are all
// faulted degrades to the next rung (the warm daemon) with the
// byte-identical body.
func TestDiskFaultFallsBackToSolve(t *testing.T) {
	tierFaultFallsBack(t, "disk", true, "remote")
}

// TestRemoteFaultFallsBackToSolve: with a cold disk, a warm dtcached
// entry whose reads are all faulted degrades to a fresh solve with the
// byte-identical body.
func TestRemoteFaultFallsBackToSolve(t *testing.T) {
	tierFaultFallsBack(t, "remote", false, "miss")
}

// flakySwitch is the registered face of the flaky test solver. The
// solver registry is process-global and keeps its first registration, so
// a FlakySolver registered directly would carry its RNG stream over from
// one test (or -count iteration) to the next; instead each flaky(t) call
// installs a fresh FlakySolver behind the one registered switch.
type flakySwitch struct{ cur atomic.Pointer[FlakySolver] }

func (s *flakySwitch) Name() string        { return "chaostestflaky" }
func (s *flakySwitch) Description() string { return s.cur.Load().Description() }
func (s *flakySwitch) Solve(ctx context.Context, req solver.Request) (*machsim.Result, error) {
	return s.cur.Load().Solve(ctx, req)
}

var (
	flakyOnce sync.Once
	flakyReg  flakySwitch
)

// flaky returns a fresh flaky solver, served as "chaostestflaky", that
// starts from seed 11's stream whatever ran before it.
func flaky(t *testing.T) *FlakySolver {
	t.Helper()
	under, err := solver.Get("hlf")
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFlakySolver("chaostestflaky", under, Config{SolverErrRate: 0.3, Seed: 11})
	flakyReg.cur.Store(fl)
	flakyOnce.Do(func() {
		if err := solver.Register(&flakyReg); err != nil {
			t.Fatal(err)
		}
	})
	return fl
}

// TestConservationLawUnderMixedFaults floods a chaos-wrapped server with
// repeating payloads while both the disk tier and the solver inject
// faults, and checks the books still balance: every answered item is
// exactly one of solve/mem-hit/disk-hit/coalesced, failed solves are
// clean 4xx/5xx errors, and the injected fault counts surface in stats.
func TestConservationLawUnderMixedFaults(t *testing.T) {
	fl := flaky(t)
	dir := t.TempDir()
	var tier *Tier
	svc, err := service.New(service.Config{
		CacheSize: 64, CacheDir: dir, DefaultSolver: "hlf",
		WrapTier: func(name string, under service.Tier) service.Tier {
			if under == nil {
				return nil
			}
			tier = NewTier(name, under, Config{DiskErrRate: 0.4, Seed: 42})
			return tier
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Close()

	ok, failed := 0, 0
	for i := 0; i < 60; i++ {
		prog := []string{"FFT", "NE", "GJ"}[i%3]
		body, err := json.Marshal(service.ScheduleRequest{
			Graph:  buildGraph(t, prog),
			Topo:   "hypercube:3",
			Solver: "chaostestflaky",
			Seed:   int64(i % 6), // repeats exercise every cache tier
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, respBody := post(t, ts.URL+"/v1/schedule", body)
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
		case http.StatusUnprocessableEntity:
			// The injected solver fault: a structured error naming it.
			var er service.ErrorResponse
			if err := json.Unmarshal(respBody, &er); err != nil || er.Error == "" {
				t.Fatalf("flaky failure without a structured body: %s", respBody)
			}
			failed++
		default:
			t.Fatalf("unexpected status %d: %s", resp.StatusCode, respBody)
		}
	}
	if ok == 0 {
		t.Fatal("no request survived the chaos")
	}
	if fl.Injected() == 0 {
		t.Fatal("no solver fault was injected in 60 requests at rate 0.3")
	}
	gets, puts := tier.Injected()
	if gets+puts == 0 {
		t.Fatal("no disk fault was injected")
	}

	st := svc.Stats()
	checkLaw(t, st)
	if st.Disk.Errors < gets+puts {
		t.Fatalf("disk errors %d do not include the %d injected faults", st.Disk.Errors, gets+puts)
	}
	if st.Failures < uint64(failed) {
		t.Fatalf("failures %d < %d observed failed requests", st.Failures, failed)
	}
}

// TestFlakySolverDeterministicBySeed: equal seeds and call sequences
// inject equal fault patterns — the harness is reproducible, not noisy.
func TestFlakySolverDeterministicBySeed(t *testing.T) {
	under, err := solver.Get("hlf")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	req := solver.Request{
		Graph: buildGraph(t, "NE"),
		Topo:  topo,
		Comm:  topology.DefaultCommParams(),
	}
	pattern := func(seed int64) []bool {
		f := NewFlakySolver("patternprobe", under, Config{SolverErrRate: 0.5, Seed: seed})
		out := make([]bool, 24)
		for i := range out {
			_, err := f.Solve(context.Background(), req)
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("call %d: non-injected error %v", i, err)
			}
			out[i] = err != nil
		}
		return out
	}
	a, b := pattern(99), pattern(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %v vs %v", i, a, b)
		}
	}
	c := pattern(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 24-call fault patterns (suspicious)")
	}
}

// startCached runs an in-process dtcached on loopback for remote-tier
// chaos tests.
func startCached(t *testing.T) (*remotecache.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := remotecache.NewServer(remotecache.ServerConfig{})
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// TestRemoteDaemonDownDegrades points a replica at a dead dtcached
// address: every request still answers 200 (the tier degrades to counted
// misses), the dial failures surface in Remote.Errors, and the law holds.
func TestRemoteDaemonDownDegrades(t *testing.T) {
	// Grab a loopback port and release it: a valid address nobody serves.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	svc, err := service.New(service.Config{
		CacheSize: 64, DefaultSolver: "hlf",
		RemoteAddr: deadAddr, RemoteTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Close()

	var first []byte
	for i := 0; i < 3; i++ {
		resp, got := post(t, ts.URL+"/v1/schedule", payload(t, "NE", int64(500+i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d with dead daemon: %d %s", i, resp.StatusCode, got)
		}
		if i == 0 {
			first = got
		}
	}
	// The same key again: served from memory, the dead daemon never
	// consulted on the hit path.
	resp, again := post(t, ts.URL+"/v1/schedule", payload(t, "NE", 500))
	if resp.StatusCode != http.StatusOK || !bytes.Equal(again, first) {
		t.Fatalf("warm replay with dead daemon: %d, identical=%v", resp.StatusCode, bytes.Equal(again, first))
	}

	st := svc.Stats()
	if st.Remote.Errors == 0 {
		t.Fatal("dead daemon produced no remote errors")
	}
	if st.Remote.Hits != 0 {
		t.Fatalf("dead daemon produced %d remote hits", st.Remote.Hits)
	}
	checkLaw(t, st)
}
