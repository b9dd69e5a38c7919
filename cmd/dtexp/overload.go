package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/service"
	"repro/internal/taskgraph"
)

// OverloadConfig drives the two-phase overload scenario against a
// dtserve instance: first a baseline of unloaded interactive probes,
// then the same probes while a batch-lane flood saturates the solver
// pool. The scenario is the measurable face of the QoS design — with
// weighted lanes and admission control working, the interactive
// percentiles stay flat while the flood is shed with structured 429s.
type OverloadConfig struct {
	// URL is the server base, e.g. "http://127.0.0.1:8080".
	URL string
	// Probes is the number of interactive probe requests per phase
	// (default 60). Every probe is a cold solve (unique seed), so it
	// must pass through the engine's interactive lane rather than being
	// absorbed by the cache.
	Probes int
	// ProbeInterval paces the probes (default 5ms) so the probe stream
	// itself never saturates the pool.
	ProbeInterval time.Duration
	// FloodConcurrency is how many clients flood the batch lane with
	// cold single-schedule calls carrying `"lane": "batch"` (default 8).
	FloodConcurrency int
	// Solver names the solver for the interactive probes (default hlf:
	// deterministic and fast, so the scenario measures queueing, not
	// annealing).
	Solver string
	// FloodSolver names the solver for the flood requests (default:
	// Solver). The dtexp harness points this at a chaos-delayed solver,
	// so flood solves occupy workers without burning CPU — on a small
	// CI machine a CPU-bound flood would contend with the probes for
	// cores and measure the OS scheduler instead of the QoS lanes.
	FloodSolver string
	// Programs are the benchmark graph keys the probes mix (default NE,
	// GJ, FFT, MM); Topo is the topology spec (default hypercube:3).
	Programs []string
	Topo     string
	// FloodPrograms are the graph keys for the flood (default:
	// Programs). The dtexp harness floods with the tiny "graham" graph
	// so each flood request costs microseconds of CPU on both sides of
	// the wire: the flood's pressure must come from occupied workers
	// and full queues, not from starving the probes of cores.
	FloodPrograms []string
	// RequestTimeout bounds each HTTP call (default 30s).
	RequestTimeout time.Duration
	// AssertFlat, when > 0, turns the report into a verdict: the run
	// fails unless loaded interactive p99 <= AssertFlat * the flatness
	// baseline (unloaded p99, floored at flatFloor to keep microsecond
	// baselines from manufacturing huge ratios), at least one flood
	// request was shed, every shed carried a Retry-After header, and
	// every interactive probe was answered 200.
	AssertFlat float64
}

// flatFloor absorbs what lane scheduling cannot remove when the
// unloaded baseline is itself tiny: the head-of-line wait for a worker
// to free (no preemption), plus scheduler and GC noise on small
// machines. Flatness is judged against max(unloaded p99, flatFloor) —
// the verdict still discriminates, because without lanes an interactive
// request waits out the whole delay-target-deep batch queue (~25ms+),
// not just the residual of the solve in progress.
const flatFloor = 10 * time.Millisecond

// OverloadReport is the outcome of one overload scenario run.
type OverloadReport struct {
	Probes      int            `json:"probes_per_phase"`
	Unloaded    LatencySummary `json:"unloaded_interactive"`
	Loaded      LatencySummary `json:"loaded_interactive"`
	Ratio       float64        `json:"p99_ratio"` // loaded p99 / max(unloaded p99, floor)
	ProbeErrors int            `json:"probe_errors"`
	FloodSent   int            `json:"flood_sent"`
	FloodOK     int            `json:"flood_ok"`
	FloodShed   int            `json:"flood_shed"` // 429 responses
	ShedRetryOK int            `json:"flood_shed_with_retry_after"`
	FloodErrors int            `json:"flood_errors"` // non-200/429 outcomes
}

// LatencySummary is the percentile triple of one latency population.
type LatencySummary struct {
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
}

// percentiles summarizes a sorted latency slice.
func percentiles(lat []time.Duration) LatencySummary {
	pct := func(p float64) time.Duration {
		if len(lat) == 0 {
			return 0
		}
		return lat[int(p*float64(len(lat)-1))]
	}
	return LatencySummary{P50: pct(0.50), P95: pct(0.95), P99: pct(0.99)}
}

// String renders the report for terminals.
func (r *OverloadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "overload: %d interactive probes per phase, %d probe errors\n", r.Probes, r.ProbeErrors)
	fmt.Fprintf(&b, "  unloaded p50/p99  %12s %12s\n",
		r.Unloaded.P50.Round(time.Microsecond), r.Unloaded.P99.Round(time.Microsecond))
	fmt.Fprintf(&b, "  loaded   p50/p99  %12s %12s  (ratio %.2f)\n",
		r.Loaded.P50.Round(time.Microsecond), r.Loaded.P99.Round(time.Microsecond), r.Ratio)
	fmt.Fprintf(&b, "  flood: %d sent, %d solved, %d shed (%d with Retry-After), %d errors\n",
		r.FloodSent, r.FloodOK, r.FloodShed, r.ShedRetryOK, r.FloodErrors)
	return b.String()
}

// RunOverload executes the scenario. Seeds are deterministic: probe i of
// a phase and flood request n of a worker always carry the same payloads
// run to run; only wall-clock latencies vary.
func RunOverload(cfg OverloadConfig) (*OverloadReport, error) {
	if cfg.URL == "" {
		return nil, fmt.Errorf("overload: missing server URL")
	}
	if cfg.Probes <= 0 {
		cfg.Probes = 60
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 5 * time.Millisecond
	}
	if cfg.FloodConcurrency <= 0 {
		cfg.FloodConcurrency = 8
	}
	if cfg.Solver == "" {
		cfg.Solver = "hlf"
	}
	if cfg.FloodSolver == "" {
		cfg.FloodSolver = cfg.Solver
	}
	if len(cfg.Programs) == 0 {
		cfg.Programs = []string{"NE", "GJ", "FFT", "MM"}
	}
	if len(cfg.FloodPrograms) == 0 {
		cfg.FloodPrograms = cfg.Programs
	}
	if cfg.Topo == "" {
		cfg.Topo = "hypercube:3"
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}

	buildGraphs := func(keys []string) ([]*taskgraph.Graph, error) {
		gs := make([]*taskgraph.Graph, len(keys))
		for i, key := range keys {
			g, err := cliutil.BuildProgram(key)
			if err != nil {
				return nil, fmt.Errorf("overload: %w", err)
			}
			gs[i] = g
		}
		return gs, nil
	}
	probeGraphs, err := buildGraphs(cfg.Programs)
	if err != nil {
		return nil, err
	}
	floodGraphs, err := buildGraphs(cfg.FloodPrograms)
	if err != nil {
		return nil, err
	}
	// payload builds a cold single-schedule body: the seed is unique per
	// (phase, index), so every request is a genuine solve in its lane.
	payload := func(graphs []*taskgraph.Graph, lane, solverName string, seed int64) []byte {
		body, _ := json.Marshal(service.ScheduleRequest{
			Graph:  graphs[int(seed)%len(graphs)],
			Topo:   cfg.Topo,
			Solver: solverName,
			Seed:   seed,
			Lane:   lane,
		})
		return body
	}

	base := strings.TrimSuffix(cfg.URL, "/")
	client := &http.Client{Timeout: cfg.RequestTimeout}
	report := &OverloadReport{Probes: cfg.Probes}

	// probePhase fires cfg.Probes paced interactive solves and returns
	// their sorted latencies. seedBase keeps the two phases' payloads
	// disjoint (each probe must miss every cache tier).
	probePhase := func(seedBase int64) (LatencySummary, error) {
		lat := make([]time.Duration, 0, cfg.Probes)
		for i := 0; i < cfg.Probes; i++ {
			t0 := time.Now()
			resp, err := client.Post(base+"/v1/schedule", "application/json",
				bytes.NewReader(payload(probeGraphs, "", cfg.Solver, seedBase+int64(i))))
			if err != nil {
				return LatencySummary{}, fmt.Errorf("overload: probe: %w", err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				report.ProbeErrors++
			} else {
				lat = append(lat, time.Since(t0))
			}
			time.Sleep(cfg.ProbeInterval)
		}
		if len(lat) == 0 {
			return LatencySummary{}, fmt.Errorf("overload: every probe failed")
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return percentiles(lat), nil
	}

	// Phase 1: unloaded baseline.
	unloaded, err := probePhase(10_000)
	if err != nil {
		return nil, err
	}
	report.Unloaded = unloaded

	// Phase 2: flood the batch lane from FloodConcurrency clients with
	// cold batch-lane solves until told to stop...
	var (
		stop      = make(chan struct{})
		wg        sync.WaitGroup
		sent      atomic.Int64
		floodOK   atomic.Int64
		shed      atomic.Int64
		shedRetry atomic.Int64
		floodErrs atomic.Int64
	)
	for w := 0; w < cfg.FloodConcurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := int64(0); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				seed := 1_000_000 + int64(w)*1_000_000 + n
				sent.Add(1)
				resp, err := client.Post(base+"/v1/schedule", "application/json",
					bytes.NewReader(payload(floodGraphs, "batch", cfg.FloodSolver, seed)))
				if err != nil {
					floodErrs.Add(1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				switch resp.StatusCode {
				case http.StatusOK:
					floodOK.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
					if resp.Header.Get("Retry-After") != "" {
						shedRetry.Add(1)
					}
					// A deliberate backoff — far below the server's
					// Retry-After, but long enough that the shed/retry churn
					// of the blocked flooders stays a small fraction of a
					// core. Retrying hot would contaminate the probe
					// latencies with CPU contention rather than queueing.
					time.Sleep(40 * time.Millisecond)
				default:
					floodErrs.Add(1)
				}
				resp.Body.Close()
			}
		}(w)
	}
	// ... give the flood a moment to fill the batch queues, then probe
	// through the congestion.
	time.Sleep(150 * time.Millisecond)
	loaded, probeErr := probePhase(20_000)
	close(stop)
	wg.Wait()
	if probeErr != nil {
		return nil, probeErr
	}
	report.Loaded = loaded
	report.FloodSent = int(sent.Load())
	report.FloodOK = int(floodOK.Load())
	report.FloodShed = int(shed.Load())
	report.ShedRetryOK = int(shedRetry.Load())
	report.FloodErrors = int(floodErrs.Load())

	floor := report.Unloaded.P99
	if floor < flatFloor {
		floor = flatFloor
	}
	report.Ratio = float64(report.Loaded.P99) / float64(floor)

	if cfg.AssertFlat > 0 {
		if report.ProbeErrors > 0 {
			return report, fmt.Errorf("overload: %d interactive probes failed (a shed or failed probe is dropped from the percentiles, so flatness cannot be judged)",
				report.ProbeErrors)
		}
		if report.FloodShed == 0 {
			return report, fmt.Errorf("overload: flood was never shed — the scenario did not overload the server")
		}
		if report.ShedRetryOK != report.FloodShed {
			return report, fmt.Errorf("overload: %d of %d sheds missing the Retry-After header",
				report.FloodShed-report.ShedRetryOK, report.FloodShed)
		}
		if report.Ratio > cfg.AssertFlat {
			return report, fmt.Errorf("overload: interactive p99 not flat under flood: %s loaded vs %s unloaded (ratio %.2f > %.2f)",
				report.Loaded.P99, report.Unloaded.P99, report.Ratio, cfg.AssertFlat)
		}
	}
	return report, nil
}
