// Command dtexp regenerates the tables and figures of D'Hollander & Devis
// (ICPP 1991):
//
//	dtexp -table1            program characteristics (Table 1)
//	dtexp -table2            SA vs HLF speedups (Table 2)
//	dtexp -fig1              annealing cost trajectories (Figure 1)
//	dtexp -fig2              Newton-Euler Gantt chart (Figure 2)
//	dtexp -packets           §6a packet statistics
//	dtexp -anomaly           §6b Graham anomaly comparison
//	dtexp -ablations         weight sweep, cooling, random graphs, static
//	                         mapping, exact-optimum and policy-zoo studies
//	dtexp -scaling           speedup-vs-processors curves
//	dtexp -all               everything above
//	dtexp -lg-overload       QoS overload scenario against an in-process
//	                         scheduling service
//
// All experiments are deterministic for a given -seed. Service load is
// measured by the end-to-end benchmark in bench/ (bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/chaos"
	"repro/internal/expt"
	"repro/internal/service"
	"repro/internal/solver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dtexp: ")

	var (
		table1    = flag.Bool("table1", false, "reproduce Table 1")
		table2    = flag.Bool("table2", false, "reproduce Table 2")
		fig1      = flag.Bool("fig1", false, "reproduce Figure 1")
		fig1CSV   = flag.Bool("fig1-csv", false, "emit Figure 1 data as CSV")
		fig2      = flag.Bool("fig2", false, "reproduce Figure 2")
		packets   = flag.Bool("packets", false, "report §6a packet statistics")
		anomaly   = flag.Bool("anomaly", false, "run the §6b Graham anomaly comparison")
		ablations = flag.Bool("ablations", false, "run the ablation studies")
		scaling   = flag.Bool("scaling", false, "run the processor-scaling study")
		all       = flag.Bool("all", false, "run every experiment")
		seed      = flag.Int64("seed", 1991, "random seed")
		restarts  = flag.Int("restarts", 0, "SA restarts per Table 2 cell (0 = default of 3)")

		lgOverload   = flag.Bool("lg-overload", false, "run the two-phase QoS overload scenario on an in-process server: hlf interactive probes unloaded, then again while 40 clients flood the batch lane")
		requests     = flag.Int("requests", 200, "overload: interactive probes per phase")
		lgAssertFlat = flag.Float64("lg-assert-flat", 0, "overload verdict: fail unless loaded interactive p99 <= this factor of the unloaded baseline, the flood was shed, every shed carries Retry-After and every probe was answered (0 = report only)")

		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Printf("dtexp %s (%s)\n", buildinfo.Version, buildinfo.GoVersion())
		return
	}

	if *all {
		*table1, *table2, *fig1, *fig2, *packets, *anomaly, *ablations, *scaling = true, true, true, true, true, true, true, true
	}
	if *lgOverload {
		if err := runOverload(*requests, *lgAssertFlat); err != nil {
			log.Fatal(err)
		}
		return
	}
	if !(*table1 || *table2 || *fig1 || *fig1CSV || *fig2 || *packets || *anomaly || *ablations || *scaling) {
		flag.Usage()
		os.Exit(2)
	}

	if *table1 {
		rows, err := expt.Table1()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(expt.FormatTable1(rows))
	}
	if *table2 {
		rows, err := expt.Table2(expt.Table2Config{Seed: *seed, Restarts: *restarts, Workers: runtime.NumCPU()})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(expt.FormatTable2(rows))
	}
	if *fig1 || *fig1CSV {
		fig, err := expt.Figure1(*seed)
		if err != nil {
			log.Fatal(err)
		}
		if *fig1CSV {
			fmt.Print(fig.CSV())
		} else {
			fmt.Println(fig.Plot(100, 24))
		}
	}
	if *fig2 {
		chart, res, err := expt.Figure2(*seed, 0, 120)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(chart)
		fmt.Printf("SA schedule: makespan %.2f µs, speedup %.2f, %d messages\n\n",
			res.Makespan, res.Speedup, res.Messages)
	}
	if *packets {
		ps, err := expt.Packets(*seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Packet statistics (§6a), Newton-Euler on the 8-node hypercube:\n")
		fmt.Printf("  %d tasks assigned in %d annealing packets\n", ps.TasksTotal, ps.Packets)
		fmt.Printf("  on average %.2f candidates for %.2f free processors\n",
			ps.AvgCandidates, ps.AvgIdle)
		fmt.Printf("  (the paper reports 95 tasks, 65 packets, 15 candidates, 1.46 processors)\n\n")
	}
	if *anomaly {
		res, err := expt.Anomaly(*seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res)
	}
	if *ablations {
		archs, err := expt.Architectures()
		if err != nil {
			log.Fatal(err)
		}
		pts, err := expt.AblationWeights("NE", archs[2], *seed, 0.1, 0.9, 9)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(expt.FormatWeights("NE", archs[2].Name, pts))
		cool, err := expt.AblationCooling("NE", archs[0], *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(expt.FormatCooling("NE", archs[0].Name, cool))
		for _, withComm := range []bool{false, true} {
			study, err := expt.AblationRandomGraphs(archs[0], 40, withComm, *seed)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(study)
		}
		fmt.Println()
		static, err := expt.AblationStatic(*seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(expt.FormatStatic(static))
		optStudy, err := expt.AblationOptimal(60, 3, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(optStudy)
		fmt.Println()
		zoo, err := expt.PolicyComparison(*seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(expt.FormatPolicyComparison(zoo))
	}
	if *scaling {
		for _, key := range []string{"NE", "MM"} {
			pts, err := expt.Scaling(key, 4, *seed)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(expt.FormatScaling(key, pts))
		}
	}
}

// runOverload runs the two-phase QoS overload scenario against an
// in-process server with deliberately tight budgets — a small fixed
// pool, shallow batch queue and a 25ms queue-delay target — so a modest
// flood overloads it reproducibly on any machine: the point is the shape
// of the degradation (flat interactive percentiles, structured 429s on
// the flood), not absolute throughput. The interactive probes solve with
// hlf, RunOverload's default.
//
// The flood runs on a chaos-delayed solver (40ms injected latency over
// hlf): flood solves hold workers without holding the CPU, so on a
// small CI machine the probes measure lane scheduling rather than core
// contention. The delay doubles as a rate limit — 16 workers at 40ms
// cap the flood near 400 solved requests/s, little enough HTTP churn
// that a single core can absorb it without inflating probe latencies.
func runOverload(probes int, assertFlat float64) error {
	under, err := solver.Get("hlf")
	if err != nil {
		return err
	}
	// Half jitter on the injected delay: an exact fixed delay would
	// march all 16 workers in lockstep (simultaneous completions,
	// forever), making an interactive probe wait out a whole flood
	// solve instead of the ~delay/16 gap between staggered
	// completions.
	flood := chaos.NewFlakySolver("floodmo", under, chaos.Config{
		SolverDelay: 40 * time.Millisecond, SolverJitter: 0.5, Seed: 1991,
	})
	if err := solver.Register(flood); err != nil {
		return err
	}
	svc, err := service.New(service.Config{
		CacheSize:        4096,
		Workers:          16,
		QueueDepth:       64,
		QueueDelayTarget: 25 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	addr := "http://" + ln.Addr().String()
	fmt.Printf("overload: in-process server on %s (16 workers, queue depth 64, 25ms delay target, 40ms flood solves)\n", addr)

	report, err := RunOverload(OverloadConfig{
		URL:    addr,
		Probes: probes,
		// The flood must hold more requests in flight than workers plus
		// the ~25ms of queue the delay target allows (~10 jobs at 40ms
		// solves on 16 workers), or admission control never trips. The
		// surplus above ~26 is what sheds; keeping it modest keeps the
		// 429 churn off the probes' core.
		FloodConcurrency: 40,
		FloodSolver:      flood.Name(),
		FloodPrograms:    []string{"graham"},
		AssertFlat:       assertFlat,
	})
	if report != nil {
		fmt.Print(report)
		st := svc.Stats()
		fmt.Printf("  server: %d shed, lanes: %+v\n", st.Shed, st.Pool.Lanes)
	}
	return err
}
