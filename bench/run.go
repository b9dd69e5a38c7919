package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	// requests, when positive, makes the timed phase send this many
	// requests instead of running for seconds, and calSpan, when
	// positive, replaces the calibration span (tests use both).
	requests int
	calSpan  time.Duration
	// setups is how many times the run sets up, on a fresh server each
	// time; setup_s is their median. The last server runs the traffic.
	setups  int
	trace   bool
	spans   string    // directory the traced run writes its spans to; empty writes none
	started time.Time // process start: the first setup is timed from it
}

// setupReps is how many times an untraced run sets up.
const setupReps = 5

// segment is the length of timed traffic between two calibrations.
const segment = 2 * time.Second

// run sets the workload up and runs its timed phase, or its traced pass
// when cfg.trace is set, printing every metric to out.
func run(cfg config, out io.Writer) (*result, error) {
	sp, ok := specByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	clients := runtime.GOMAXPROCS(0)
	var (
		e      *env
		seeded []sample
		setupS []float64
	)
	for i := 0; ; i++ {
		t0 := time.Now()
		if i == 0 && !cfg.started.IsZero() {
			t0 = cfg.started
		}
		var err error
		if e, err = start(sp, cfg.seed, clients); err != nil {
			return nil, err
		}
		if seeded, err = e.w.setup(e.c, cfg.trace); err != nil {
			e.close()
			return nil, fmt.Errorf("%s setup: %w", sp.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i+1 >= cfg.setups {
			break
		}
		e.close()
	}
	defer e.close()
	fmt.Fprintf(out, "workload %s  seed %d  trace %v  clients %d  GOMAXPROCS %d  nproc %d\n",
		sp.name, cfg.seed, cfg.trace, clients, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if cfg.trace {
		return e.traced(cfg, seeded, out)
	}
	return e.timed(cfg, setupS, out)
}

// phase returns the next stretch of the workload's traffic: cfg.requests
// requests in tests, length otherwise.
func (e *env) phase(cfg config, length time.Duration, traced bool) phase {
	ph := phase{next: e.next, traced: traced, length: length,
		keep: e.spec.rate > 0 || cfg.trace, quality: e.spec.quality}
	if cfg.requests > 0 {
		ph.count = cfg.requests
		if e.spec.rate == 0 {
			ph.count = (cfg.requests + e.clients - 1) / e.clients
		}
	}
	return ph
}

// timed runs the untraced timed phase in segments, calibrating the
// processors' speed before the first and after each, and reports the
// end-to-end metrics. Timings are rescaled by each segment's speed factor
// (see speed.go); the raw ones are printed beside them.
func (e *env) timed(cfg config, setupS []float64, out io.Writer) (*result, error) {
	span := calSpan
	if cfg.calSpan > 0 {
		span = cfg.calSpan
	}
	cal := newCalibrator(e.clients, span)
	before, err := e.c.stats()
	if err != nil {
		return nil, err
	}
	segs := 1
	if cfg.requests == 0 {
		segs = max(1, int(math.Round(cfg.seconds/segment.Seconds())))
	}
	length := time.Duration(cfg.seconds / float64(segs) * float64(time.Second))
	mem := &memProbe{at: int64(e.spec.memAt)}
	type timedSegment struct {
		res    *phaseResult
		factor float64
	}
	var parts []timedSegment
	// The first calibration follows the last setup closely enough to stand
	// for its speed too.
	setupFactor := cal.factor()
	factor := setupFactor
	for i := 0; i < segs; i++ {
		ph := e.phase(cfg, length, false)
		ph.mem = mem
		res := e.run(cfg.seed, ph)
		next := cal.factor()
		parts = append(parts, timedSegment{res, (factor + next) / 2})
		factor = next
	}
	after, err := e.c.stats()
	if err != nil {
		return nil, err
	}
	verr := e.w.verify(before, after)

	// The peak is read before the summaries below allocate.
	mem.read()
	if mem.err != nil {
		return nil, mem.err
	}
	all := &phaseResult{}
	var refWall float64 // the timed phase's wall time at reference speed, in seconds
	var factors []float64
	for _, p := range parts {
		all.blocks = append(all.blocks, p.res.blocks...)
		all.wall += p.res.wall
		all.speedups.merge(p.res.speedups)
		refWall += p.res.wall.Seconds() * p.factor
		factors = append(factors, p.factor)
	}
	attempted := 0
	all.each(func(*sample) { attempted++ })
	if attempted == 0 {
		return nil, fmt.Errorf("%s: the timed phase sent no requests", e.spec.name)
	}
	ok := func(s *sample) bool { return s.err() == nil }
	okLat := func(s *sample) (time.Duration, bool) { return s.lat, ok(s) }
	raw := all.sorted(okLat)
	okN := len(raw)
	rawP50, _ := percentile(raw, 0.50)
	for _, p := range parts {
		p.res.each(func(s *sample) { s.lat = time.Duration(float64(s.lat) * p.factor) })
	}
	lat := all.sorted(okLat)

	r := newReport(out)
	rawRPS := float64(okN) / all.wall.Seconds()
	if e.spec.rate > 0 {
		// The arrivals follow the wall clock: the achieved rate is the
		// offered one unless the server falls behind.
		r.set("throughput_rps", rawRPS, "req/s  %d ok of %d attempted in %.3f s", okN, attempted, all.wall.Seconds())
	} else {
		r.set("throughput_rps", float64(okN)/refWall, "req/s  at reference speed; raw %.6g req/s, %d ok of %d attempted in %.3f s",
			rawRPS, okN, attempted, all.wall.Seconds())
	}
	p50, _ := percentile(lat, 0.50)
	p99, beyond := percentile(lat, 0.99)
	r.set("latency_p50_ms", p50, "ms  at reference speed, n=%d; raw %.6g ms", okN, rawP50)
	r.set("ok_ratio", float64(okN)/float64(attempted), "ratio  %d failed", attempted-okN)
	r.set("speedup_mean", all.speedups.mean(), "ratio  over %d validated answers", all.speedups.n)
	r.set("setup_s", median(setupS)*setupFactor, "s  at reference speed; raw median %.6g s of %v", median(setupS), setupS)
	r.set("rss_peak_mb", mem.mib, "MiB  peak resident set after %d timed answers", mem.after)
	q1, q3 := quartiles(factors)
	r.note("speed factor over %d segments: median %.3f [%.3f, %.3f], setup %.3f", len(factors), median(factors), q1, q3, setupFactor)
	r.note("latency p99 %.4f ms at reference speed (%d beyond)", p99, beyond)
	if e.spec.rate > 0 {
		lag, _ := percentile(all.sorted(func(s *sample) (time.Duration, bool) { return s.x.lag, true }), 0.99)
		r.note("generator lag p99 %.1f us", 1e3*lag)
		queue, _ := percentile(all.sorted(func(s *sample) (time.Duration, bool) { return s.x.queue, true }), 0.99)
		hot := all.sorted(func(s *sample) (time.Duration, bool) { return s.lat, ok(s) && s.x.hot })
		cold := all.sorted(func(s *sample) (time.Duration, bool) { return s.lat, ok(s) && !s.x.hot })
		hP99, hb := percentile(hot, 0.99)
		cP99, cb := percentile(cold, 0.99)
		r.note("connection queue p99 %.3f ms; hot latency p99 %.3f ms (n=%d, %d beyond); cold latency p99 %.3f ms (n=%d, %d beyond)",
			queue, hP99, len(hot), hb, cP99, len(cold), cb)
	}
	r.note("server: %d solves, %d memory hits, %d evictions, %d warm starts in the timed phase",
		after.Solves-before.Solves, after.Cache.Hits-before.Cache.Hits,
		after.Cache.Evictions-before.Cache.Evictions, after.WarmHits-before.WarmHits)
	r.failures(all)
	if verr != nil {
		r.note("failure: %v", verr)
	}
	return r.result(endToEnd, attempted, attempted-okN, okN == attempted && verr == nil)
}
