package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/engine"
	"repro/internal/obs"
)

// laneNames returns the lane keys in stable (sorted) order so the
// exposition is deterministic scrape to scrape.
func laneNames(lanes map[string]engine.LaneStats) []string {
	names := make([]string, 0, len(lanes))
	for name := range lanes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// handleMetrics exports every /statsz counter plus the latency
// histograms in Prometheus text exposition format, so the service can be
// scraped without an adapter. Histogram state lives in internal/obs
// histograms fed by the request path; everything else derives from one
// Stats snapshot, so the conservation-law counters are mutually
// consistent within a single scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	var b strings.Builder

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	histHeader := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	}
	sortedKeys := func(m map[string]uint64) []string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}

	fmt.Fprintf(&b, "# HELP dtserve_build_info Build identity; the value is always 1.\n# TYPE dtserve_build_info gauge\n")
	fmt.Fprintf(&b, "dtserve_build_info{version=%q,go_version=%q} 1\n",
		buildinfo.Version, buildinfo.GoVersion())

	counter("dtserve_requests_total", "API calls that reached a handler.", st.Requests)
	counter("dtserve_failures_total", "Requests answered with a non-2xx status.", st.Failures)
	counter("dtserve_schedule_items_total", "Schedule items answered: one per single schedule call, one per batch member.", st.Items)
	counter("dtserve_solves_total", "Solver executions (cache misses that ran a solver).", st.Solves)
	counter("dtserve_coalesced_total", "Requests answered by piggybacking on an identical in-flight solve.", st.Coalesced)
	counter("dtserve_portfolio_pruned_total", "Portfolio members cancelled mid-run by the incumbent bound.", st.PortfolioPruned)
	counter("dtserve_restarts_abandoned_total", "Cooperative SA restarts abandoned early for lagging the shared incumbent (seed-deterministic).", st.RestartsAbandoned)
	counter("dtserve_warm_hits_total", "Solver executions warm-started from a cached near-miss assignment (similarity index or delta base).", st.WarmHits)
	counter("dtserve_warm_epochs_saved_total", "Annealing stages skipped by warm-started solves.", st.WarmEpochsSaved)
	counter("dtserve_anneal_moves_total", "SA moves proposed by solves (summed over packets and restarts).", st.AnnealMoves)
	counter("dtserve_anneal_accepted_total", "SA moves accepted by solves; divided by dtserve_anneal_moves_total it is the acceptance ratio.", st.AnnealAccepted)
	counter("dtserve_portfolio_bound_updates_total", "Portfolio incumbent-bound tightenings published by completed members.", st.PortfolioBoundUpdates)
	gauge("dtserve_sim_index_entries", "Entries currently held by the similarity index.", int64(st.SimIndexEntries))
	counter("dtserve_shed_total", "Requests refused by admission control with a 429 (lane depth or queue-delay budget exhausted).", st.Shed)
	counter("dtserve_cancelled_total", "Solves cancelled by their caller going away (client disconnect, drain).", st.Cancelled)
	counter("dtserve_wire_slow_decodes_total", "/v1/schedule bodies outside the one-pass scanner's subset, decoded by encoding/json instead.", st.WireSlowDecodes)
	counter("dtserve_alias_hits_total", "/v1/schedule bodies answered from the memory tier by the alias of their exact bytes, without a decode; a subset of the memory hits.", st.AliasHits)
	counter("dtserve_traces_total", "Completed request traces recorded to the /debug/requests ring.", st.Traces)
	draining := int64(0)
	if st.Draining {
		draining = 1
	}
	gauge("dtserve_draining", "1 while the server is draining (refusing new work, finishing streams).", draining)

	fmt.Fprintf(&b, "# HELP dtserve_solves_by_solver_total Solver executions by registry name.\n# TYPE dtserve_solves_by_solver_total counter\n")
	for _, name := range sortedKeys(st.BySolver) {
		fmt.Fprintf(&b, "dtserve_solves_by_solver_total{solver=%q} %d\n", name, st.BySolver[name])
	}

	// Per-solver outcomes: successful executions (BySolver) and failed ones
	// (SolveErrors) as one labeled family, so an error-rate query is a
	// single ratio over the outcome label.
	fmt.Fprintf(&b, "# HELP dtserve_solver_outcome_total Solver executions by registry name and outcome (ok or error; sheds are excluded).\n# TYPE dtserve_solver_outcome_total counter\n")
	for _, name := range sortedKeys(st.BySolver) {
		fmt.Fprintf(&b, "dtserve_solver_outcome_total{solver=%q,outcome=\"ok\"} %d\n", name, st.BySolver[name])
	}
	for _, name := range sortedKeys(st.SolveErrors) {
		fmt.Fprintf(&b, "dtserve_solver_outcome_total{solver=%q,outcome=\"error\"} %d\n", name, st.SolveErrors[name])
	}

	// Portfolio member outcomes, split from the "member|outcome" mirror key.
	fmt.Fprintf(&b, "# HELP dtserve_portfolio_member_total Portfolio member runs by member solver and outcome (win, finish, pruned, timeout, cancelled, error).\n# TYPE dtserve_portfolio_member_total counter\n")
	for _, key := range sortedKeys(st.MemberOutcomes) {
		member, outcome, ok := strings.Cut(key, "|")
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "dtserve_portfolio_member_total{member=%q,outcome=%q} %d\n",
			member, outcome, st.MemberOutcomes[key])
	}

	counter("dtserve_cache_hits_total", "Result cache hits (mirrored at item accounting, so hits+misses may momentarily trail the tier's own probe count).", st.Cache.Hits)
	counter("dtserve_cache_misses_total", "Result cache misses.", st.Cache.Misses)
	counter("dtserve_cache_evictions_total", "Result cache evictions.", st.Cache.Evictions)
	gauge("dtserve_cache_entries", "Entries currently cached.", int64(st.Cache.Entries))
	gauge("dtserve_cache_bytes", "Bytes of response bodies currently cached.", st.Cache.Bytes)
	counter("dtserve_disk_hits_total", "Persistent disk tier hits (mirrored at item accounting).", st.Disk.Hits)
	counter("dtserve_disk_misses_total", "Persistent disk tier misses.", st.Disk.Misses)
	counter("dtserve_disk_writes_total", "Entries persisted by the disk tier's write-behind writer.", st.Disk.Writes)
	counter("dtserve_disk_evictions_total", "Disk tier entries evicted to hold the byte budget.", st.Disk.Evictions)
	counter("dtserve_disk_errors_total", "Corrupt/stale entries detected and deleted, plus failed or dropped writes.", st.Disk.Errors)
	gauge("dtserve_disk_entries", "Entries currently on disk.", int64(st.Disk.Entries))
	gauge("dtserve_disk_bytes", "On-disk bytes (entry headers included).", st.Disk.Bytes)
	remoteEnabled := int64(0)
	if st.Remote.Enabled {
		remoteEnabled = 1
	}
	gauge("dtserve_remote_enabled", "1 when a shared remote cache tier (dtcached) is configured.", remoteEnabled)
	counter("dtserve_remote_hits_total", "Shared remote tier hits (mirrored at item accounting).", st.Remote.Hits)
	counter("dtserve_remote_misses_total", "Shared remote tier misses (errors degrade to counted misses).", st.Remote.Misses)
	counter("dtserve_remote_puts_total", "Results published to the shared remote tier by the write-behind writer.", st.Remote.Puts)
	counter("dtserve_remote_errors_total", "Remote tier failures: network/daemon errors, checksum mismatches, dropped writes — every one degraded, none served.", st.Remote.Errors)
	counter("dtserve_remote_corrupt_total", "Remote values that failed the client-side checksum and were refused.", st.Remote.Corrupt)
	gauge("dtserve_pool_workers", "Solver pool size (fixed for the server's life).", int64(st.Pool.Workers))
	gauge("dtserve_pool_busy", "Workers currently running a solve.", st.Pool.Busy)
	counter("dtserve_pool_completed_total", "Jobs completed by the solver pool.", uint64(st.Pool.Completed))

	laneCounter := func(name, help string, get func(engine.LaneStats) uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, lane := range laneNames(st.Pool.Lanes) {
			fmt.Fprintf(&b, "%s{lane=%q} %d\n", name, lane, get(st.Pool.Lanes[lane]))
		}
	}
	laneCounter("dtserve_lane_submitted_total", "Jobs admitted into the lane's queue.",
		func(l engine.LaneStats) uint64 { return l.Submitted })
	laneCounter("dtserve_lane_completed_total", "Jobs the lane ran to completion.",
		func(l engine.LaneStats) uint64 { return l.Completed })
	laneCounter("dtserve_lane_shed_total", "Submissions refused by the lane's admission budgets.",
		func(l engine.LaneStats) uint64 { return l.Shed })
	laneCounter("dtserve_lane_expired_total", "Jobs whose context ended while queued (never ran).",
		func(l engine.LaneStats) uint64 { return l.Expired })
	fmt.Fprintf(&b, "# HELP dtserve_lane_queued Jobs currently queued in the lane.\n# TYPE dtserve_lane_queued gauge\n")
	for _, lane := range laneNames(st.Pool.Lanes) {
		fmt.Fprintf(&b, "dtserve_lane_queued{lane=%q} %d\n", lane, st.Pool.Lanes[lane].Queued)
	}
	fmt.Fprintf(&b, "# HELP dtserve_lane_queue_delay_ewma_seconds Moving average of the lane's enqueue-to-dequeue delay.\n# TYPE dtserve_lane_queue_delay_ewma_seconds gauge\n")
	for _, lane := range laneNames(st.Pool.Lanes) {
		fmt.Fprintf(&b, "dtserve_lane_queue_delay_ewma_seconds{lane=%q} %g\n", lane, st.Pool.Lanes[lane].QueueDelayEWMA)
	}
	fmt.Fprintf(&b, "# HELP dtserve_lane_queue_delay_target_seconds Configured queue-delay shedding target for the lane (-queue-delay-target; 0 means depth-only shedding).\n# TYPE dtserve_lane_queue_delay_target_seconds gauge\n")
	for _, lane := range laneNames(st.Pool.Lanes) {
		fmt.Fprintf(&b, "dtserve_lane_queue_delay_target_seconds{lane=%q} %g\n", lane, float64(st.Pool.Lanes[lane].QueueDelayTargetNS)/1e9)
	}

	histHeader("dtserve_lane_queue_delay_seconds", "Distribution of the lane's enqueue-to-dequeue delay.")
	for _, lane := range laneNames(st.Pool.Lanes) {
		st.Pool.Lanes[lane].QueueDelay.WriteProm(&b, "dtserve_lane_queue_delay_seconds",
			fmt.Sprintf("lane=%q", lane))
	}

	histHeader("dtserve_solve_duration_seconds", "Wall-clock latency of completed cold solves (queueing + solving + marshaling); count tracks dtserve_solves_total.")
	s.solveLatency.Snapshot().WriteProm(&b, "dtserve_solve_duration_seconds", "")

	// Per-stage latency: every depth-0 trace stage, in pipeline order.
	// Counts grow only for traced requests (explicit or sampled), so the
	// distributions are samples of the same population the end-to-end
	// histogram sees in full.
	histHeader("dtserve_stage_duration_seconds", "Per-stage latency of traced requests, labeled by pipeline stage.")
	for _, stage := range obs.Stages {
		h, ok := s.stageLatency[stage]
		if !ok {
			continue
		}
		h.Snapshot().WriteProm(&b, "dtserve_stage_duration_seconds", fmt.Sprintf("stage=%q", stage))
	}

	histHeader("dtserve_disk_read_seconds", "Disk tier Get latency (hits and misses, through the fault-injection seam).")
	s.readLatency["disk"].Snapshot().WriteProm(&b, "dtserve_disk_read_seconds", "")
	histHeader("dtserve_disk_write_seconds", "Disk tier write-behind persist latency (temp write + fsync + rename).")
	s.diskWrite.Snapshot().WriteProm(&b, "dtserve_disk_write_seconds", "")
	histHeader("dtserve_remote_read_seconds", "Remote tier Get latency (hits, misses and degraded errors, through the fault-injection seam).")
	s.readLatency["remote"].Snapshot().WriteProm(&b, "dtserve_remote_read_seconds", "")
	histHeader("dtserve_stream_ttfb_seconds", "NDJSON batch time-to-first-byte: request start to the first streamed item hitting the wire.")
	s.streamTTFB.Snapshot().WriteProm(&b, "dtserve_stream_ttfb_seconds", "")

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
