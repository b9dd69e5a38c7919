// Command dtserve serves the taskgraph scheduling API over HTTP/JSON:
//
//	dtserve -addr :8080 -workers 8 -cache 4096 -solver portfolio
//
// Endpoints: POST /v1/schedule, POST /v1/schedule/batch (NDJSON streaming
// with "Accept: application/x-ndjson": items flush as their solves
// complete), GET /v1/solvers, GET /healthz, GET /statsz, GET /metrics,
// GET /debug/requests (recent + slowest request traces).
// Solves run on the shared internal/engine worker pool, split into an
// interactive lane (single schedule calls) and a batch lane (batch
// members) with weighted dequeue, per-lane admission control (shed
// requests get a structured 429 with Retry-After) and a fixed pool of
// -workers solve workers. Identical payloads produce byte-identical
// responses; completed results are memoized in a
// content-addressed LRU cache (cache status in the X-DTServe-Cache
// header), optionally backed by a persistent disk tier (-cache-dir) so
// a restarted server replays its warm set without re-solving, and by a
// fleet-shared remote tier (-remote-addr, a dtcached daemon) so one
// replica's cold solve becomes every other replica's warm hit.
// SIGINT/SIGTERM put the server in draining mode (healthz reports 503,
// new work is refused with 503 + Retry-After) and flush in-flight
// streams — and the disk tier's write-behind queue — before exiting.
//
// Observability: every response carries an X-DTServe-Trace-Id header;
// "trace": true in the request body (or ?trace=1) returns a per-stage
// timing breakdown in the response envelope; -trace-sample N
// additionally samples one in N untraced requests into the
// /debug/requests ring and the per-stage /metrics histograms. Request
// logs go to stderr on log/slog; -log-format json emits one JSON object
// per request for log pipelines. -debug-addr serves net/http/pprof on a
// private listener, kept off the public API address.
//
// The -chaos flag turns on the fault-injection harness from
// internal/chaos for resilience drills: disk-* and remote-* keys fault
// the disk and remote cache rungs, solver-* keys wrap the default
// solver, e.g.
//
//	dtserve -cache-dir /tmp/dt -chaos 'disk-err=0.2,disk-delay=2ms,solver-err=0.05,seed=7'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/chaos"
	"repro/internal/service"
	"repro/internal/solver"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "solver pool size (0 = one per CPU)")
		queueDepth  = flag.Int("queue-depth", 0, "per-lane admission budget in queued jobs (0 = 1024)")
		delayTarget = flag.Duration("queue-delay-target", 0, "shed a lane once its head-of-queue age exceeds this (0 disables; negative is rejected)")
		laneWeight  = flag.Int("interactive-weight", 0, "interactive jobs dequeued per batch job when both lanes wait (0 = 4)")
		cacheSize   = flag.Int("cache", 4096, "result cache capacity in entries (0 disables)")
		cacheBytes  = flag.Int64("cache-bytes", 0, "result cache byte budget (0 = 256 MiB)")
		cacheDir    = flag.String("cache-dir", "", "persistent disk cache directory: restarts keep the warm set (empty disables)")
		diskBytes   = flag.Int64("disk-cache-bytes", 0, "disk cache byte budget (0 = 1 GiB)")
		remoteAddr  = flag.String("remote-addr", "", "dtcached daemon host:port, the fleet-shared remote cache tier (empty disables)")
		remoteTO    = flag.Duration("remote-timeout", 0, "remote tier round-trip budget; slower consults degrade to a miss (0 = 250ms)")
		solverDef   = flag.String("solver", "sa", "default solver for requests that name none")
		warm        = flag.Bool("warm", false, "warm-start SA requests that miss every cache tier from the nearest cached solve (similarity index); /v1/schedule/delta warms regardless")
		warmMaxDist = flag.Float64("warm-max-distance", 0, "maximum sketch distance for index-picked warm seeds (0 = 0.5)")
		simIndex    = flag.Int("sim-index", 0, "similarity index capacity in entries (0 = 4096)")
		timeout     = flag.Duration("timeout", 0, "default per-request solve timeout (0 = none)")
		maxBatch    = flag.Int("max-batch", 256, "maximum requests per batch call")
		chaosSpec   = flag.String("chaos", "", "fault-injection spec, e.g. 'disk-err=0.2,disk-delay=2ms,solver-err=0.05,seed=7' (empty disables)")
		quiet       = flag.Bool("quiet", false, "disable per-request logging")
		logFormat   = flag.String("log-format", "text", "request log encoding: text or json")
		traceSample = flag.Int("trace-sample", 64, "trace one in N untraced requests into /debug/requests and the stage histograms (0 = explicit traces only)")
		traceRecent = flag.Int("trace-recent", 0, "recent traces retained by /debug/requests (0 = 64)")
		traceSlow   = flag.Int("trace-slowest", 0, "slowest traces retained by /debug/requests (0 = 16)")
		debugAddr   = flag.String("debug-addr", "", "private listen address for net/http/pprof (empty disables)")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("dtserve %s (%s)\n", buildinfo.Version, buildinfo.GoVersion())
		return
	}

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "dtserve: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	cfg := service.Config{
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		QueueDelayTarget:  *delayTarget,
		InteractiveWeight: *laneWeight,
		CacheSize:         *cacheSize,
		CacheBytes:        *cacheBytes,
		CacheDir:          *cacheDir,
		DiskCacheBytes:    *diskBytes,
		RemoteAddr:        *remoteAddr,
		RemoteTimeout:     *remoteTO,
		DefaultSolver:     *solverDef,
		WarmStart:         *warm,
		WarmMaxDistance:   *warmMaxDist,
		SimIndexSize:      *simIndex,
		DefaultTimeout:    *timeout,
		MaxBatch:          *maxBatch,
		TraceSample:       *traceSample,
		TraceRecent:       *traceRecent,
		TraceSlowest:      *traceSlow,
	}
	if !*quiet {
		cfg.Logger = logger
	}

	if *chaosSpec != "" {
		ccfg, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fatal("chaos spec", err)
		}
		// The disk-* and remote-* keys fault the configured cache rungs
		// of those names through the WrapTier seam; a rung the spec
		// leaves unarmed is passed through untouched.
		cfg.WrapTier = chaos.WrapTier(ccfg)
		if ccfg.SolverErrRate > 0 || ccfg.SolverDelay > 0 {
			under, err := solver.Get(*solverDef)
			if err != nil {
				fatal("chaos solver", err)
			}
			flaky := chaos.NewFlakySolver("chaos", under, ccfg)
			if err := solver.Register(flaky); err != nil {
				fatal("chaos solver", err)
			}
			cfg.DefaultSolver = flaky.Name()
			logger.Info("chaos: default solver wrapped", "solver", flaky.Name(), "wraps", under.Name())
		}
		logger.Info("chaos: fault injection armed", "spec", *chaosSpec)
	}

	svc, err := service.New(cfg)
	if err != nil {
		fatal("startup", err)
	}
	defer svc.Close()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	// pprof lives on its own mux and listener: profiling endpoints never
	// share the public API address, so exposing the service does not
	// expose heap dumps.
	if *debugAddr != "" {
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv := &http.Server{Addr: *debugAddr, Handler: debugMux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener", "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", *debugAddr)
	}

	diskNote := "off"
	if *cacheDir != "" {
		diskNote = *cacheDir
	}
	remoteNote := "off"
	if *remoteAddr != "" {
		remoteNote = *remoteAddr
	}
	logger.Info("listening",
		"addr", *addr,
		"version", buildinfo.Version,
		"default_solver", cfg.DefaultSolver,
		"cache_entries", *cacheSize,
		"disk_tier", diskNote,
		"remote_tier", remoteNote,
		"warm_start", *warm,
		"trace_sample", *traceSample,
	)

	select {
	case err := <-errCh:
		fatal("listen", err)
	case <-ctx.Done():
	}

	// Drain first: healthz flips to 503 so load balancers stop routing,
	// new work is refused with Retry-After, and in-flight NDJSON streams
	// cancel their remaining members and flush what they have. Shutdown
	// then waits for those handlers to finish writing.
	logger.Info("draining")
	svc.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("shutdown", "err", err)
	}
}
