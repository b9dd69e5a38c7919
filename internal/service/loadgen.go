package service

import (
	"bufio"
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
	"repro/internal/engine"
	"repro/internal/obs"
)

// LoadGenConfig drives a synthetic traffic run against a dtserve instance.
type LoadGenConfig struct {
	// URL is the server base, e.g. "http://127.0.0.1:8080".
	URL string
	// Requests is the total request count (default 200). In batch mode it
	// counts batch calls, each carrying Batch schedule items.
	Requests int
	// Concurrency is the number of in-flight clients (default 8).
	Concurrency int
	// Distinct is how many distinct payloads the run cycles through
	// (default 8): with R requests the expected warm cache hit ratio is
	// (R - Distinct) / R.
	Distinct int
	// Batch, when > 0, switches the run to the streaming batch endpoint:
	// every request is a POST /v1/schedule/batch of this many members,
	// consumed as NDJSON, with first-item and last-item latency reported
	// separately — the gap is what streaming buys over a buffered batch.
	Batch int
	// Programs are benchmark graph keys to mix (default NE, GJ, FFT, MM).
	Programs []string
	// Topo is the topology spec for every request (default hypercube:3).
	Topo string
	// Solver names the solver to exercise (empty = server default).
	Solver string
	// Lane tags every request with a QoS lane ("interactive" or
	// "batch"); empty keeps the server's per-endpoint default.
	Lane string
	// MemberTimeoutMS sets the per-member portfolio budget on every
	// request (0 omits the field). Only meaningful for portfolio solves.
	MemberTimeoutMS int
	// RequestTimeout bounds each HTTP call so one wedged request cannot
	// hang the run (default 60s).
	RequestTimeout time.Duration
	// TraceEvery, when > 0, sets "trace": true on every Nth single
	// schedule request and folds the returned stage breakdowns into the
	// report's per-stage latency table. Single mode only; batch calls are
	// never traced by the generator.
	TraceEvery int
	// ShedRetries bounds how many times one request is retried after a
	// 429 before it counts as an error (default 3). Each retry sleeps for
	// the shed's retry_after_ms hint, capped at 2s.
	ShedRetries int
	// Warm pre-seeds every distinct payload (untimed, sequential, each
	// waited to completion) before the clock starts, so the timed run
	// measures the pure warm-hit serving floor: throughput and latency
	// percentiles then cost no solves, only decode + canonical key +
	// cache read + response write. WarmMisses in the report counts timed
	// requests that still missed — nonzero means eviction or a seeding
	// failure polluted the measurement.
	Warm bool
	// Delta switches the run to the online-rescheduling endpoint: each
	// distinct payload is solved once (untimed) to obtain its content
	// address, then the timed run posts /v1/schedule/delta calls that edit
	// one task's load against those bases — a load derived from the
	// request index, so every timed delta is a distinct warm solve, never
	// a replay. DeltaWarm in the report counts responses that carried an
	// X-DTServe-Warm header, i.e. were actually answered by a warm-started
	// (or warm-cached) solve.
	Delta bool
}

// LoadGenReport summarizes a load generation run.
type LoadGenReport struct {
	Requests   int           `json:"requests"`
	Errors     int           `json:"errors"`
	CacheHits  int           `json:"cache_hits"`
	DiskHits   int           `json:"disk_hits"`
	RemoteHits int           `json:"remote_hits"`
	Coalesced  int           `json:"coalesced"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	// Throughput is answered requests (Requests − Errors) per second of
	// Elapsed: a failed request is not served work.
	Throughput float64       `json:"requests_per_second"`
	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP95 time.Duration `json:"latency_p95_ns"`
	LatencyP99 time.Duration `json:"latency_p99_ns"`
	// Sheds counts 429 responses received (each is followed by a backoff
	// honoring the server's retry_after_ms hint); Retries counts the
	// re-sends that followed. A request that stays shed through every
	// retry lands in Errors.
	Sheds   int `json:"sheds,omitempty"`
	Retries int `json:"retries,omitempty"`
	// Traced counts responses that carried a stage breakdown; Stages is
	// the per-stage latency table folded from them.
	Traced int              `json:"traced,omitempty"`
	Stages []StageBreakdown `json:"stages,omitempty"`
	// Warm mode only: Warm records that the cache was pre-seeded before
	// the clock started (so Throughput/latency are the pure warm-hit
	// numbers), WarmSeeded how many distinct keys the seeding phase
	// solved, and WarmMisses how many timed requests still fell through
	// to a solve (0 for a clean measurement).
	Warm       bool `json:"warm,omitempty"`
	WarmSeeded int  `json:"warm_seeded,omitempty"`
	WarmMisses int  `json:"warm_misses,omitempty"`
	// Delta mode only: Delta records that the timed phase hit the
	// rescheduling endpoint, DeltaBases how many base solves seeded it,
	// and DeltaWarm how many timed responses were warm-started (carried
	// X-DTServe-Warm).
	Delta      bool `json:"delta,omitempty"`
	DeltaBases int  `json:"delta_bases,omitempty"`
	DeltaWarm  int  `json:"delta_warm,omitempty"`
	// Batch mode only: per-call latency to the first streamed item vs the
	// last. Zero batch size leaves them nil.
	Batch     int             `json:"batch,omitempty"`
	Items     int             `json:"items,omitempty"`
	FirstItem *LatencySummary `json:"first_item,omitempty"`
	LastItem  *LatencySummary `json:"last_item,omitempty"`
}

// StageBreakdown is one row of the traced-request stage table: latency
// percentiles for one pipeline stage plus its share of the summed
// end-to-end time of the traced population.
type StageBreakdown struct {
	Stage string        `json:"stage"`
	Count int           `json:"count"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	Share float64       `json:"share"`
}

// LatencySummary is the percentile triple of one latency population.
type LatencySummary struct {
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
}

// String renders the report for terminals.
func (r *LoadGenReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %d requests, %d errors, %d memory hits, %d disk hits, %d remote hits, %d coalesced\n",
		r.Requests, r.Errors, r.CacheHits, r.DiskHits, r.RemoteHits, r.Coalesced)
	if r.Warm {
		fmt.Fprintf(&b, "  warm mode   %d keys pre-seeded before the clock; %d timed misses — throughput/latency below are the pure warm-hit floor\n",
			r.WarmSeeded, r.WarmMisses)
	}
	if r.Batch > 0 {
		fmt.Fprintf(&b, "  batch mode  %d items per streamed batch call (%d items total)\n", r.Batch, r.Items)
	}
	if r.Delta {
		fmt.Fprintf(&b, "  delta mode  %d bases seeded; %d of %d timed responses warm-started\n",
			r.DeltaBases, r.DeltaWarm, r.Requests-r.Errors)
	}
	fmt.Fprintf(&b, "  wall time   %12s\n", r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  throughput  %12.1f req/s\n", r.Throughput)
	fmt.Fprintf(&b, "  latency p50 %12s\n", r.LatencyP50.Round(time.Microsecond))
	fmt.Fprintf(&b, "  latency p95 %12s\n", r.LatencyP95.Round(time.Microsecond))
	fmt.Fprintf(&b, "  latency p99 %12s\n", r.LatencyP99.Round(time.Microsecond))
	if r.FirstItem != nil && r.LastItem != nil {
		fmt.Fprintf(&b, "  first item  %12s p50 / %12s p95 (streamed)\n",
			r.FirstItem.P50.Round(time.Microsecond), r.FirstItem.P95.Round(time.Microsecond))
		fmt.Fprintf(&b, "  last item   %12s p50 / %12s p95\n",
			r.LastItem.P50.Round(time.Microsecond), r.LastItem.P95.Round(time.Microsecond))
	}
	if r.Sheds > 0 || r.Retries > 0 {
		fmt.Fprintf(&b, "  sheds       %12d (429s, backed off per retry_after_ms), %d retries\n",
			r.Sheds, r.Retries)
	}
	if r.Traced > 0 {
		fmt.Fprintf(&b, "  stage breakdown from %d traced requests:\n", r.Traced)
		fmt.Fprintf(&b, "    %-16s %7s %12s %12s %7s\n", "stage", "count", "p50", "p95", "share")
		for _, st := range r.Stages {
			fmt.Fprintf(&b, "    %-16s %7d %12s %12s %6.1f%%\n",
				st.Stage, st.Count, st.P50.Round(time.Microsecond), st.P95.Round(time.Microsecond), 100*st.Share)
		}
	}
	return b.String()
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

// LoadGen fires cfg.Requests schedule calls at the server from
// cfg.Concurrency clients and reports throughput, latency percentiles and
// the cache hit count (from the X-DTServe-Cache header, or the per-item
// cache tags in batch mode). Distinct payloads differ by graph and seed,
// so the run exercises both the solve engine (cold keys) and the
// content-addressed cache (warm keys). The client fan-out runs on the
// same engine.ParallelFor loop the experiment harness uses, so request i
// always carries payload i%distinct regardless of concurrency.
func LoadGen(cfg LoadGenConfig) (*LoadGenReport, error) {
	if cfg.URL == "" {
		return nil, fmt.Errorf("loadgen: missing server URL")
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 200
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Distinct <= 0 {
		cfg.Distinct = 8
	}
	if len(cfg.Programs) == 0 {
		cfg.Programs = []string{"NE", "GJ", "FFT", "MM"}
	}
	if cfg.Topo == "" {
		cfg.Topo = "hypercube:3"
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	if cfg.ShedRetries <= 0 {
		cfg.ShedRetries = 3
	}

	// Pre-marshal the distinct payload set so request bodies cost nothing
	// during the timed run. Traced variants are marshaled alongside: the
	// trace field is excluded from the server's cache key, so a traced
	// request exercises the same cache line as its untraced twin.
	singles := make([]ScheduleRequest, cfg.Distinct)
	payloads := make([][]byte, cfg.Distinct)
	traced := make([][]byte, cfg.Distinct)
	for i := range payloads {
		g, err := cliutil.BuildProgram(cfg.Programs[i%len(cfg.Programs)])
		if err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		singles[i] = ScheduleRequest{
			Graph:           g,
			Topo:            cfg.Topo,
			Solver:          cfg.Solver,
			Seed:            int64(1991 + i),
			Lane:            cfg.Lane,
			MemberTimeoutMS: cfg.MemberTimeoutMS,
		}
		body, err := json.Marshal(singles[i])
		if err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		payloads[i] = body
		if cfg.TraceEvery > 0 {
			tr := singles[i]
			tr.Trace = true
			if traced[i], err = json.Marshal(tr); err != nil {
				return nil, fmt.Errorf("loadgen: %w", err)
			}
		}
	}
	// Batch payloads rotate through the distinct singles so a batch mixes
	// cold and warm members.
	batches := make([][]byte, 0)
	if cfg.Batch > 0 {
		for i := 0; i < cfg.Distinct; i++ {
			reqs := make([]ScheduleRequest, cfg.Batch)
			for j := range reqs {
				reqs[j] = singles[(i+j)%len(singles)]
			}
			body, err := json.Marshal(BatchRequest{Requests: reqs})
			if err != nil {
				return nil, fmt.Errorf("loadgen: %w", err)
			}
			batches = append(batches, body)
		}
	}

	if cfg.Delta && cfg.Batch > 0 {
		return nil, fmt.Errorf("loadgen: delta mode and batch mode are mutually exclusive")
	}

	base := strings.TrimSuffix(cfg.URL, "/")
	client := &http.Client{Timeout: cfg.RequestTimeout}
	warmSeeded := 0
	if cfg.Warm {
		// Seed sequentially and wait each solve to completion: batch
		// payloads rotate through the same singles, so seeding the
		// distinct singles warms every key the timed phase can ask for.
		for i, p := range payloads {
			resp, err := client.Post(base+"/v1/schedule", "application/json", bytes.NewReader(p))
			if err != nil {
				return nil, fmt.Errorf("loadgen: warm seed %d: %w", i, err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("loadgen: warm seed %d: status %d", i, resp.StatusCode)
			}
			warmSeeded++
		}
	}
	// Delta mode: solve each distinct payload once (untimed, sequential)
	// to obtain its content address, then pre-marshal one delta payload
	// per timed request — a single set_load edit against base i%distinct,
	// so the edited graph is a true near-miss of its base. The load is
	// derived from the request index: a load repeated on one base would
	// replay the first answer from memory instead of solving.
	var deltas [][]byte
	deltaBases := 0
	if cfg.Delta {
		addrs := make([]string, cfg.Distinct)
		for i, p := range payloads {
			resp, err := client.Post(base+"/v1/schedule", "application/json", bytes.NewReader(p))
			if err != nil {
				return nil, fmt.Errorf("loadgen: delta base %d: %w", i, err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("loadgen: delta base %d: status %d", i, resp.StatusCode)
			}
			if addrs[i] = resp.Header.Get("X-DTServe-Address"); addrs[i] == "" {
				return nil, fmt.Errorf("loadgen: delta base %d: no X-DTServe-Address header (server too old?)", i)
			}
			deltaBases++
		}
		deltas = make([][]byte, cfg.Requests)
		for i := range deltas {
			load := 2.0 + 0.25*float64(i)
			body, err := json.Marshal(DeltaRequest{
				Base:  addrs[i%len(addrs)],
				Edits: []DeltaEdit{{Op: "set_load", Task: 0, Load: &load}},
				Lane:  cfg.Lane,
			})
			if err != nil {
				return nil, fmt.Errorf("loadgen: %w", err)
			}
			deltas[i] = body
		}
	}
	latencies := make([]time.Duration, cfg.Requests)
	firstLat := make([]time.Duration, cfg.Requests)
	lastLat := make([]time.Duration, cfg.Requests)
	var errCount, hitCount, diskCount, remoteCount, coalCount, itemCount atomic.Int64
	var shedCount, retryCount, deltaWarmCount atomic.Int64
	stages := newStageCollector()

	start := time.Now()
	_ = engine.ParallelFor(cfg.Concurrency, cfg.Requests, func(i int, _ *engine.Worker) error {
		if cfg.Batch > 0 {
			fireBatch(client, base, batches[i%len(batches)], i,
				latencies, firstLat, lastLat, &errCount, &hitCount, &diskCount, &remoteCount, &coalCount, &itemCount, &shedCount)
			return nil
		}
		wantTrace := cfg.TraceEvery > 0 && i%cfg.TraceEvery == 0
		endpoint := base + "/v1/schedule"
		payload := payloads[i%len(payloads)]
		if cfg.Delta {
			endpoint = base + "/v1/schedule/delta"
			payload = deltas[i]
			wantTrace = false
		} else if wantTrace {
			payload = traced[i%len(traced)]
		}
		t0 := time.Now()
		var resp *http.Response
		for attempt := 0; ; attempt++ {
			var err error
			resp, err = client.Post(endpoint, "application/json", bytes.NewReader(payload))
			if err != nil {
				errCount.Add(1)
				latencies[i] = time.Since(t0)
				return nil
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				break
			}
			// Admission control shed us: honor the hint instead of
			// hammering an overloaded lane.
			shedCount.Add(1)
			hint := shedBackoff(resp)
			if attempt == cfg.ShedRetries {
				errCount.Add(1)
				latencies[i] = time.Since(t0)
				return nil
			}
			time.Sleep(hint)
			retryCount.Add(1)
		}
		if resp.StatusCode != http.StatusOK {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			latencies[i] = time.Since(t0)
			errCount.Add(1)
			return nil
		}
		if wantTrace {
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			latencies[i] = time.Since(t0)
			if err != nil {
				errCount.Add(1)
				return nil
			}
			stages.add(body)
		} else {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			latencies[i] = time.Since(t0)
		}
		countCacheTag(resp.Header.Get("X-DTServe-Cache"), &hitCount, &diskCount, &remoteCount, &coalCount)
		if cfg.Delta && resp.Header.Get("X-DTServe-Warm") != "" {
			deltaWarmCount.Add(1)
		}
		return nil
	})
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	total := percentiles(latencies)
	report := &LoadGenReport{
		Requests:   cfg.Requests,
		Errors:     int(errCount.Load()),
		CacheHits:  int(hitCount.Load()),
		DiskHits:   int(diskCount.Load()),
		RemoteHits: int(remoteCount.Load()),
		Coalesced:  int(coalCount.Load()),
		Elapsed:    elapsed,
		Throughput: float64(cfg.Requests-int(errCount.Load())) / elapsed.Seconds(),
		LatencyP50: total.P50,
		LatencyP95: total.P95,
		LatencyP99: total.P99,
		Sheds:      int(shedCount.Load()),
		Retries:    int(retryCount.Load()),
	}
	report.Traced, report.Stages = stages.summarize()
	if cfg.Delta {
		report.Delta = true
		report.DeltaBases = deltaBases
		report.DeltaWarm = int(deltaWarmCount.Load())
	}
	if cfg.Warm {
		report.Warm = true
		report.WarmSeeded = warmSeeded
		served := report.CacheHits + report.DiskHits + report.RemoteHits + report.Coalesced
		answered := report.Requests - report.Errors
		if cfg.Batch > 0 {
			answered = report.Items
		}
		if misses := answered - served; misses > 0 {
			report.WarmMisses = misses
		}
	}
	if cfg.Batch > 0 {
		report.Batch = cfg.Batch
		report.Items = int(itemCount.Load())
		// A batch call that failed before its first item never set its
		// first/last slots; including those zeros would drag the reported
		// percentiles toward 0, so only calls that streamed at least one
		// item count (a real item latency is never exactly zero).
		first := make([]time.Duration, 0, len(firstLat))
		last := make([]time.Duration, 0, len(lastLat))
		for i := range firstLat {
			if firstLat[i] > 0 {
				first = append(first, firstLat[i])
				last = append(last, lastLat[i])
			}
		}
		sort.Slice(first, func(i, j int) bool { return first[i] < first[j] })
		sort.Slice(last, func(i, j int) bool { return last[i] < last[j] })
		fp := percentiles(first)
		lp := percentiles(last)
		report.FirstItem = &fp
		report.LastItem = &lp
	}
	return report, nil
}

// shedBackoff drains a 429 response and returns how long its
// retry_after_ms hint says to wait, clamped to [50ms, 2s] so a missing
// or absurd hint cannot stall or defeat the backoff.
func shedBackoff(resp *http.Response) time.Duration {
	var er ErrorResponse
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	_ = json.Unmarshal(data, &er)
	d := time.Duration(er.RetryAfterMS) * time.Millisecond
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// stageCollector folds the trace blocks of traced responses into
// per-stage latency populations. Safe for concurrent use.
type stageCollector struct {
	mu      sync.Mutex
	byStage map[string][]time.Duration
	totalNS int64
	traced  int
}

func newStageCollector() *stageCollector {
	return &stageCollector{byStage: make(map[string][]time.Duration)}
}

// add parses one response body's "trace" block. Bodies without one (the
// server was asked but answered an error shape, or parsing fails) are
// ignored — the collector only summarizes what actually arrived.
func (c *stageCollector) add(body []byte) {
	var envelope struct {
		Trace *obs.TraceData `json:"trace"`
	}
	if json.Unmarshal(body, &envelope) != nil || envelope.Trace == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.traced++
	c.totalNS += envelope.Trace.TotalNS
	for _, st := range envelope.Trace.Stages {
		if st.Depth != 0 {
			continue // portfolio members overlap; they are not shares of the pipeline
		}
		c.byStage[st.Stage] = append(c.byStage[st.Stage], time.Duration(st.DurNS))
	}
}

// summarize renders the collected populations as report rows, in
// pipeline order, with each stage's share of the summed traced time.
func (c *stageCollector) summarize() (int, []StageBreakdown) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.traced == 0 {
		return 0, nil
	}
	order := append([]string{}, obs.Stages...)
	for stage := range c.byStage {
		known := false
		for _, s := range order {
			if s == stage {
				known = true
				break
			}
		}
		if !known {
			order = append(order, stage)
		}
	}
	out := make([]StageBreakdown, 0, len(c.byStage))
	for _, stage := range order {
		lat := c.byStage[stage]
		if len(lat) == 0 {
			continue
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		var sum time.Duration
		for _, d := range lat {
			sum += d
		}
		p := percentiles(lat)
		share := 0.0
		if c.totalNS > 0 {
			share = float64(sum.Nanoseconds()) / float64(c.totalNS)
		}
		out = append(out, StageBreakdown{
			Stage: stage, Count: len(lat), P50: p.P50, P95: p.P95, Share: share,
		})
	}
	return c.traced, out
}

// fireBatch issues one streaming batch call and records the latency of
// the first and last NDJSON items separately: with pipelining working,
// the first item of a cold batch lands well before the slowest member
// completes.
func fireBatch(client *http.Client, base string, payload []byte, i int,
	latencies, firstLat, lastLat []time.Duration,
	errCount, hitCount, diskCount, remoteCount, coalCount, itemCount, shedCount *atomic.Int64) {

	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/schedule/batch", bytes.NewReader(payload))
	if err != nil {
		errCount.Add(1)
		latencies[i] = time.Since(t0)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := client.Do(req)
	if err != nil {
		errCount.Add(1)
		latencies[i] = time.Since(t0)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests {
			shedCount.Add(1)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		errCount.Add(1)
		latencies[i] = time.Since(t0)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 32<<20)
	seen := 0
	for sc.Scan() {
		var item BatchItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			errCount.Add(1)
			continue
		}
		seen++
		if seen == 1 {
			firstLat[i] = time.Since(t0)
		}
		lastLat[i] = time.Since(t0)
		if item.Error != "" {
			errCount.Add(1)
			continue
		}
		itemCount.Add(1)
		countCacheTag(item.Cache, hitCount, diskCount, remoteCount, coalCount)
	}
	if err := sc.Err(); err != nil {
		errCount.Add(1)
	}
	latencies[i] = time.Since(t0)
}

// countCacheTag buckets one cache status tag into the hit counters.
func countCacheTag(tag string, hit, disk, remote, coal *atomic.Int64) {
	switch tag {
	case "hit":
		hit.Add(1)
	case "disk":
		disk.Add(1)
	case "remote":
		remote.Add(1)
	case "coalesced":
		coal.Add(1)
	}
}
