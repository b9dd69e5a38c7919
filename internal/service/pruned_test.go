package service

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machsim"
	"repro/internal/solver"
)

// prunableSolver cooperates with the portfolio's Stop hook: it spins
// until the hook reports an incumbent makes +Inf unwinnable, then returns
// the hook's error — deterministic member pruning for HTTP-level tests.
type prunableSolver struct{}

func (prunableSolver) Name() string        { return "prunabletest" }
func (prunableSolver) Description() string { return "test-only self-pruning portfolio member" }

func (prunableSolver) Solve(ctx context.Context, req solver.Request) (*machsim.Result, error) {
	if req.Sim.Stop == nil {
		s, err := solver.Get("hlf")
		if err != nil {
			return nil, err
		}
		return s.Solve(ctx, req)
	}
	for {
		if err := req.Sim.Stop(math.MaxFloat64); err != nil {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
}

var registerPrunable sync.Once

// TestPortfolioPrunedCounterAndNoCache: a portfolio race resolved with a
// pruned member bumps portfolio_pruned in /statsz and /metrics, and its
// result is served but never cached — the second identical request solves
// again.
func TestPortfolioPrunedCounterAndNoCache(t *testing.T) {
	registerPrunable.Do(func() {
		if err := solver.Register(prunableSolver{}); err != nil {
			t.Fatalf("register: %v", err)
		}
	})
	old := solver.PortfolioMembers
	solver.PortfolioMembers = []string{"hlf", "prunabletest"}
	t.Cleanup(func() { solver.PortfolioMembers = old })

	svc, ts := newTestServer(t, Config{CacheSize: 64})
	body := wireRequest(t, "NE", func(r *ScheduleRequest) {
		r.Solver = "portfolio"
		r.Restarts = 0
	})
	resp1, body1 := post(t, ts.URL+"/v1/schedule", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	resp2, body2 := post(t, ts.URL+"/v1/schedule", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-DTServe-Cache"); got != "miss" {
		t.Fatalf("pruned portfolio result was cached: X-DTServe-Cache = %q", got)
	}
	if string(body1) != string(body2) {
		t.Fatal("re-solved pruned race diverged (winner must be deterministic)")
	}

	st := svc.Stats()
	if st.PortfolioPruned < 2 {
		t.Fatalf("portfolio_pruned = %d, want >= 2 (one per solve)", st.PortfolioPruned)
	}
	if st.Solves != 2 || st.Cache.Hits != 0 {
		t.Fatalf("pruned results must never be cached: %+v", st)
	}
	var js map[string]any
	if err := json.Unmarshal([]byte(statszBody(t, ts.URL)), &js); err != nil {
		t.Fatal(err)
	}
	if _, ok := js["portfolio_pruned"]; !ok {
		t.Fatal("statsz payload lacks portfolio_pruned")
	}
	metrics := metricsBody(t, ts.URL)
	if !containsLinePrefix(metrics, "dtserve_portfolio_pruned_total ") {
		t.Fatalf("metrics exposition lacks dtserve_portfolio_pruned_total:\n%s", metrics)
	}
	if !containsLinePrefix(metrics, "dtserve_schedule_items_total ") {
		t.Fatal("metrics exposition lacks dtserve_schedule_items_total")
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func statszBody(t *testing.T, base string) string  { return getBody(t, base+"/statsz") }
func metricsBody(t *testing.T, base string) string { return getBody(t, base+"/metrics") }

// containsLinePrefix reports whether any line of s starts with prefix.
func containsLinePrefix(s, prefix string) bool {
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}
