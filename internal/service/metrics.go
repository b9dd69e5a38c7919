package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/obs"
)

// handleMetrics exports every /statsz counter plus the latency
// histograms in Prometheus text exposition format, so the service can be
// scraped without an adapter. The counters are rendered from one Stats
// snapshot, whose `metric` tags declare them (obs.WriteProm), so the
// conservation-law counters are mutually consistent within a scrape and
// every /statsz leaf has its family. Histogram state lives in internal/obs
// histograms fed by the request path, listed here.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	var b strings.Builder
	obs.WritePromHeader(&b, "dtserve_build_info", "gauge", "Build identity; the value is always 1.")
	fmt.Fprintf(&b, "dtserve_build_info{version=%q,go_version=%q} 1\n", buildinfo.Version, buildinfo.GoVersion())
	obs.WriteProm(&b, "dtserve", st)

	hist := func(name, help string) { obs.WritePromHeader(&b, name, "histogram", help) }
	hist("dtserve_lane_queue_delay_seconds", "Distribution of the lane's enqueue-to-dequeue delay.")
	lanes := make([]string, 0, len(st.Pool.Lanes))
	for lane := range st.Pool.Lanes {
		lanes = append(lanes, lane)
	}
	sort.Strings(lanes)
	for _, lane := range lanes {
		st.Pool.Lanes[lane].QueueDelay.WriteProm(&b, "dtserve_lane_queue_delay_seconds",
			fmt.Sprintf("lane=%q", lane))
	}

	hist("dtserve_solve_duration_seconds", "Wall-clock latency of completed cold solves (queueing + solving + marshaling); count tracks dtserve_solves_total.")
	s.solveLatency.Snapshot().WriteProm(&b, "dtserve_solve_duration_seconds", "")

	// Per-stage latency: every depth-0 trace stage, in pipeline order.
	// Counts grow only for traced requests (explicit or sampled), so the
	// distributions are samples of the same population the end-to-end
	// histogram sees in full.
	hist("dtserve_stage_duration_seconds", "Per-stage latency of traced requests, labeled by pipeline stage.")
	for _, stage := range obs.Stages {
		h, ok := s.stageLatency[stage]
		if !ok {
			continue
		}
		h.Snapshot().WriteProm(&b, "dtserve_stage_duration_seconds", fmt.Sprintf("stage=%q", stage))
	}

	hist("dtserve_disk_read_seconds", "Disk tier Get latency (hits and misses, through the fault-injection seam).")
	s.readLatency["disk"].Snapshot().WriteProm(&b, "dtserve_disk_read_seconds", "")
	hist("dtserve_disk_write_seconds", "Disk tier write-behind persist latency (temp write + fsync + rename).")
	s.diskWrite.Snapshot().WriteProm(&b, "dtserve_disk_write_seconds", "")
	hist("dtserve_remote_read_seconds", "Remote tier Get latency (hits, misses and degraded errors, through the fault-injection seam).")
	s.readLatency["remote"].Snapshot().WriteProm(&b, "dtserve_remote_read_seconds", "")
	hist("dtserve_stream_ttfb_seconds", "NDJSON batch time-to-first-byte: request start to the first streamed item hitting the wire.")
	s.streamTTFB.Snapshot().WriteProm(&b, "dtserve_stream_ttfb_seconds", "")

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
