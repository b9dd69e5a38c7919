package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"syscall"
)

// metricDef names one metric and its unit. The tables mirror
// BENCHMARK.json, which a test checks.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports.
var endToEnd = []metricDef{
	{"throughput_rps", "req/s"},
	{"latency_p50_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"speedup_mean", "ratio"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MiB"},
}

// perLayer is what a traced run reports.
var perLayer = []metricDef{
	{"latency_p99_ms", "ms"},
	{"http.self_p50_us", "us"},
	{"service.decode_p50_us", "us"},
	{"service.decode_share", "ratio"},
	{"service.canonicalize_p50_us", "us"},
	{"service.canonicalize_share", "ratio"},
	{"service.mem_tier_p50_us", "us"},
	{"service.warm_seed_share", "ratio"},
	{"service.engine_queue_mean_us", "us"},
	{"service.solve_p50_ms", "ms"},
	{"service.solve_share", "ratio"},
	{"service.marshal_p50_us", "us"},
	{"service.stage_coverage", "ratio"},
	{"service.mem_hit_ratio", "ratio"},
	{"service.cache_evictions", "count"},
	{"service.warm_ratio", "ratio"},
	{"service.warm_stages_saved_per_solve", "count"},
	{"core.packets_per_solve", "count"},
	{"machsim.epochs_per_solve", "count"},
	{"anneal.moves_per_solve", "count"},
	{"anneal.stages_per_solve", "count"},
	{"anneal.accept_ratio", "ratio"},
	{"taskgraph.parse_us", "us"},
	{"taskgraph.canon_json_us", "us"},
	{"key.sha256_us", "us"},
	{"taskgraph.graph_us", "us"},
	{"wire.marshal_us", "us"},
	{"core.assign_ms_per_solve", "ms"},
	{"core.assign_share", "ratio"},
	{"anneal.ns_per_move", "ns"},
	{"machsim.self_ms_per_solve", "ms"},
	{"schedule.validate_us", "us"},
	{"bench.gen_lag_p99_us", "us"},
	{"bench.trace_overhead_pct", "%"},
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report gathers a run's metrics and prints them as it goes, with the
// sample counts and notes behind each.
type report struct {
	out  io.Writer
	vals map[string]float64
}

func newReport(out io.Writer) *report { return &report{out: out, vals: map[string]float64{}} }

func (r *report) set(name string, v float64, note string, args ...any) {
	r.vals[name] = v
	fmt.Fprintf(r.out, "  %-38s %14.6g  %s\n", name, v, fmt.Sprintf(note, args...))
}

// note prints a line that is not a metric.
func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.out, "  "+format+"\n", args...)
}

// result builds the result line from the metrics of defs, which must all
// have been set.
func (r *report) result(defs []metricDef, attempted, failed int, correct bool) (*result, error) {
	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := r.vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	return res, nil
}

// failures prints the first few distinct errors of the phases.
func (r *report) failures(phases ...*phaseResult) {
	seen := map[string]bool{}
	for _, ph := range phases {
		ph.each(func(s *sample) {
			err := s.err()
			if err == nil || seen[err.Error()] || len(seen) == 5 {
				return
			}
			seen[err.Error()] = true
			r.note("failure: %s", strings.TrimSpace(err.Error()))
		})
	}
}

// peakRSSMiB is the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
