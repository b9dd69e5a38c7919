// Command dtbench is the end-to-end benchmark of the scheduling service.
// It serves internal/service in-process on a loopback listener, drives it
// over HTTP with one of four workloads, checks every answer and prints
// every metric with its unit.
//
//	go run . -workload cold_solve -seed 1 -seconds 20 -trace 0
//	go run . -seed 1991 -repeat 5 -out results.json
//
// With -workload it runs that workload in this process and prints, as its
// last line, one JSON object with the keys correct, attempted, failed and
// metrics: the end-to-end metrics, or with -trace 1 the per-layer ones.
// Without -workload it runs every workload -repeat times, each run in a
// child process of its own, and prints the median and quartiles of each
// metric. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// processStart is when the process began: the first setup is timed from
// here.
var processStart = time.Now()

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("dtbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this workload in this process (empty: every workload, each in a child process)")
	seed := fs.Int64("seed", 1991, "seed every input is drawn from")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	repeat := fs.Int("repeat", 1, "runs of each workload, alternating the workload order (without -workload)")
	outFile := fs.String("out", "", "also write the results with an environment block to this JSON file")
	spans := fs.String("spans", "", "directory the traced pass writes <workload>.spans.json to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(os.Stderr, "dtbench: unexpected arguments %q\n", fs.Args())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(os.Stderr, "dtbench: -trace must be 0 or 1")
		return 2
	case *seconds <= 0 || *repeat < 1:
		fmt.Fprintln(os.Stderr, "dtbench: -seconds must be positive and -repeat at least 1")
		return 2
	}
	if _, ok := specByName(*workload); *workload != "" && !ok {
		fmt.Fprintf(os.Stderr, "dtbench: unknown workload %q (want %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	info := envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		VCSRevision: vcsRevision(), Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Repeat: *repeat}

	runs := map[string][]*result{}
	ok := true
	if *workload != "" {
		cfg := config{workload: *workload, seed: *seed, seconds: *seconds, setups: setupReps, trace: *trace == 1,
			spans: *spans, started: processStart}
		if cfg.trace {
			cfg.setups = 1
		}
		res, err := run(cfg, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dtbench: %v\n", err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dtbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		runs[*workload] = []*result{res}
		ok = res.Correct
	} else {
		child := []string{"-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(*trace), "-spans", *spans}
		runs, ok = runAll(child, *repeat, stdout)
		summarize(stdout, runs, info.Trace)
	}
	if *outFile != "" {
		if err := writeResults(*outFile, info, runs); err != nil {
			fmt.Fprintf(os.Stderr, "dtbench: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

// runAll runs every workload repeat times with the child arguments,
// reversing the workload order on every other round, each run in a child
// process so that its peak memory is its own. It reports whether every
// run was correct.
func runAll(childArgs []string, repeat int, stdout io.Writer) (map[string][]*result, bool) {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtbench: %v\n", err)
		return nil, false
	}
	runs := map[string][]*result{}
	ok := true
	for round := 0; round < repeat; round++ {
		order := slices.Clone(specs)
		if round%2 == 1 {
			slices.Reverse(order)
		}
		for _, sp := range order {
			res, err := runChild(exe, append([]string{"-workload", sp.name}, childArgs...), stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dtbench: %s run %d: %v\n", sp.name, round+1, err)
				ok = false
			}
			if res != nil {
				runs[sp.name] = append(runs[sp.name], res)
				ok = ok && res.Correct
			}
		}
	}
	return runs, ok
}

// runChild runs one workload in a child process, relays its output and
// parses the result line it ends with.
func runChild(exe string, args []string, stdout io.Writer) (*result, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(stdout, last)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return parseResult(last), err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	res := parseResult(last)
	if res == nil {
		return nil, fmt.Errorf("no result line")
	}
	return res, nil
}

func parseResult(line string) *result {
	var res result
	if json.Unmarshal([]byte(line), &res) != nil || res.Metrics == nil {
		return nil
	}
	return &res
}

// summary is one metric of one workload over a set of runs.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summaries(defs []metricDef, rs []*result) map[string]summary {
	out := map[string]summary{}
	for _, d := range defs {
		var vals []float64
		for _, r := range rs {
			if v, ok := r.Metrics[d.name]; ok {
				vals = append(vals, v.Value)
			}
		}
		q1, q3 := quartiles(vals)
		out[d.name] = summary{Unit: d.unit, Median: median(vals), Q1: q1, Q3: q3, Values: vals}
	}
	return out
}

// summarize prints the median, quartiles and relative spread of every
// metric of every workload.
func summarize(w io.Writer, runs map[string][]*result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, sp := range specs {
		rs := runs[sp.name]
		if len(rs) == 0 {
			continue
		}
		fmt.Fprintf(w, "summary %s over %d runs: median [q1, q3] spread\n", sp.name, len(rs))
		sums := summaries(defs, rs)
		for _, d := range defs {
			s := sums[d.name]
			fmt.Fprintf(w, "  %-38s %14.6g [%.6g, %.6g] %6.2f%%  %s\n",
				d.name, s.Median, s.Q1, s.Q3, 100*ratio(s.Q3-s.Q1, s.Median), d.unit)
		}
	}
}

// envInfo records where and what was measured.
type envInfo struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	CPUModel    string  `json:"cpu_model"`
	GoVersion   string  `json:"go_version"`
	VCSRevision string  `json:"vcs_revision"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	Repeat      int     `json:"repeat"`
}

// workloadResults is one workload's runs and their summary. Each run's
// attempted count is its number of latency samples.
type workloadResults struct {
	Runs    []*result          `json:"runs"`
	Summary map[string]summary `json:"summary"`
}

func writeResults(path string, info envInfo, runs map[string][]*result) error {
	info.CPUModel = cpuModel()
	defs := endToEnd
	if info.Trace {
		defs = perLayer
	}
	doc := struct {
		Env       envInfo                    `json:"env"`
		Workloads map[string]workloadResults `json:"workloads"`
	}{info, map[string]workloadResults{}}
	for name, rs := range runs {
		doc.Workloads[name] = workloadResults{Runs: rs, Summary: summaries(defs, rs)}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// vcsRevision is the commit the binary was built from, if the build
// recorded one.
func vcsRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty, _ = strconv.ParseBool(s.Value)
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
