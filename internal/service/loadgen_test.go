package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestLoadGenHonorsShedHints: the generator backs off on a 429 by the
// shed's retry_after_ms hint and retries, counting sheds and retries
// separately — none of which surface as errors when the retry lands.
func TestLoadGenHonorsShedHints(t *testing.T) {
	const shedFirst = 4
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= shedFirst {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(ErrorResponse{Error: "shed", RetryAfterMS: 1})
			return
		}
		w.Header().Set("X-DTServe-Cache", "miss")
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	report, err := LoadGen(LoadGenConfig{
		URL:         ts.URL,
		Requests:    8,
		Concurrency: 2,
		Distinct:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Sheds != shedFirst {
		t.Fatalf("sheds = %d, want %d (one per 429 received)", report.Sheds, shedFirst)
	}
	if report.Retries != shedFirst {
		t.Fatalf("retries = %d, want %d (every shed request retried once)", report.Retries, shedFirst)
	}
	if report.Errors != 0 {
		t.Fatalf("errors = %d, want 0 — a shed that succeeds on retry is not an error", report.Errors)
	}
}

// TestLoadGenThroughputCountsAnsweredOnly: failed requests are errors,
// not served work, so the reported rate is (Requests − Errors)/Elapsed.
func TestLoadGenThroughputCountsAnsweredOnly(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%4 == 0 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Header().Set("X-DTServe-Cache", "miss")
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()

	report, err := LoadGen(LoadGenConfig{
		URL:         ts.URL,
		Requests:    20,
		Concurrency: 2,
		Distinct:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 5 {
		t.Fatalf("errors = %d, want 5 (every 4th request fails)", report.Errors)
	}
	if answered := report.Throughput * report.Elapsed.Seconds(); math.Abs(answered-15) > 1e-6 {
		t.Fatalf("throughput × elapsed = %g requests, want the 15 answered", answered)
	}
}

// TestLoadGenShedRetriesExhausted: a request that stays shed through
// every retry finally counts as an error.
func TestLoadGenShedRetriesExhausted(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(ErrorResponse{Error: "shed", RetryAfterMS: 1})
	}))
	defer ts.Close()

	report, err := LoadGen(LoadGenConfig{
		URL:         ts.URL,
		Requests:    2,
		Concurrency: 2,
		Distinct:    1,
		ShedRetries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 2 {
		t.Fatalf("errors = %d, want 2 (retries exhausted)", report.Errors)
	}
	if report.Sheds != 4 {
		t.Fatalf("sheds = %d, want 4 (initial attempt + one retry, per request)", report.Sheds)
	}
	if report.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (one per request before giving up)", report.Retries)
	}
}

// TestLoadGenWarmMode runs warm mode against a real server: seeding
// solves every distinct key before the clock, so every timed request is
// answered from cache — zero warm misses and a hit count equal to the
// request count.
func TestLoadGenWarmMode(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64})
	report, err := LoadGen(LoadGenConfig{
		URL:         ts.URL,
		Requests:    12,
		Concurrency: 3,
		Distinct:    3,
		Solver:      "hlf",
		Warm:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("errors = %d, want 0", report.Errors)
	}
	if !report.Warm || report.WarmSeeded != 3 {
		t.Fatalf("warm = %v seeded = %d, want true/3", report.Warm, report.WarmSeeded)
	}
	if report.WarmMisses != 0 {
		t.Fatalf("warm misses = %d, want 0 — seeding should have covered every timed key", report.WarmMisses)
	}
	if got := report.CacheHits + report.DiskHits + report.Coalesced; got != report.Requests {
		t.Fatalf("cache-served = %d of %d timed requests, want all", got, report.Requests)
	}
}

// TestLoadGenTraceBreakdown runs the generator against a real server with
// trace sampling on: every other request is traced and the report's
// per-stage table reflects the request pipeline.
func TestLoadGenTraceBreakdown(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64})
	report, err := LoadGen(LoadGenConfig{
		URL:         ts.URL,
		Requests:    10,
		Concurrency: 2,
		Distinct:    2,
		Solver:      "hlf",
		TraceEvery:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("errors = %d, want 0", report.Errors)
	}
	if report.Traced != 5 {
		t.Fatalf("traced = %d, want 5 (every 2nd of 10 requests)", report.Traced)
	}
	byStage := map[string]StageBreakdown{}
	for _, st := range report.Stages {
		byStage[st.Stage] = st
	}
	for _, stage := range []string{"decode", "canonicalize"} {
		row, ok := byStage[stage]
		if !ok {
			t.Fatalf("stage table %v missing %q", report.Stages, stage)
		}
		if row.Count != 5 {
			t.Fatalf("stage %s count = %d, want 5 (every traced request passes it)", stage, row.Count)
		}
		if row.Share < 0 || row.Share > 1 {
			t.Fatalf("stage %s share = %v, want within [0, 1]", stage, row.Share)
		}
	}
	if _, ok := byStage["solve"]; !ok {
		t.Fatalf("stage table %v missing the solve stage (cold keys were traced)", report.Stages)
	}
}

// TestLoadGenDeltaModeSolvesEveryDelta runs delta mode against a real
// server: every timed delta edits its base with a load of its own, so the
// timed phase is all warm solves — it adds no memory hits, and warm_hits
// equals the answered requests (the base solves are cold).
func TestLoadGenDeltaModeSolvesEveryDelta(t *testing.T) {
	svc, ts := newTestServer(t, Config{CacheSize: 64})
	report, err := LoadGen(LoadGenConfig{
		URL:         ts.URL,
		Requests:    12,
		Concurrency: 3,
		Distinct:    2,
		Programs:    []string{"NE", "FFT"},
		Delta:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	answered := report.Requests - report.Errors
	if answered != 12 || report.DeltaWarm != answered {
		t.Fatalf("answered %d, warm-started %d; want all 12 of 12", answered, report.DeltaWarm)
	}
	st := svc.Stats()
	if report.CacheHits != 0 || st.Cache.Hits != 0 {
		t.Fatalf("timed phase answered %d (statsz %d) deltas from memory, want 0", report.CacheHits, st.Cache.Hits)
	}
	if st.WarmHits != uint64(answered) {
		t.Fatalf("warm_hits = %d, want %d (one warm solve per answered delta)", st.WarmHits, answered)
	}
	if err := CheckLaw(st); err != nil {
		t.Fatal(err)
	}
}
