package expt

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machsim"
	"repro/internal/programs"
	"repro/internal/topology"
)

func TestArchitecturesMatchPaper(t *testing.T) {
	archs, err := Architectures()
	if err != nil {
		t.Fatal(err)
	}
	if len(archs) != 3 {
		t.Fatalf("architectures = %d, want 3", len(archs))
	}
	if archs[0].Topo.N() != 8 || archs[0].Topo.Diameter() != 3 {
		t.Errorf("hypercube wrong: %v", archs[0].Topo)
	}
	if archs[1].Topo.N() != 8 || !archs[1].Topo.SharedMedium() {
		t.Errorf("bus wrong: %v", archs[1].Topo)
	}
	if archs[2].Topo.N() != 9 || archs[2].Topo.Diameter() != 4 {
		t.Errorf("ring wrong: %v", archs[2].Topo)
	}
}

func TestGain(t *testing.T) {
	if Gain(6, 5) != 20 {
		t.Errorf("Gain(6,5) = %g", Gain(6, 5))
	}
	if Gain(1, 0) != 0 {
		t.Errorf("Gain(1,0) = %g", Gain(1, 0))
	}
}

func TestTable1RowsMatchPaper(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Tasks != r.Paper.Tasks {
			t.Errorf("%s: tasks %d != paper %d", r.Program, r.Tasks, r.Paper.Tasks)
		}
		if math.Abs(r.AvgDur-r.Paper.AvgDur) > 0.01 {
			t.Errorf("%s: avg dur %.3f != paper %.2f", r.Program, r.AvgDur, r.Paper.AvgDur)
		}
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "Newton-Euler") || !strings.Contains(out, "Max. Speedup") {
		t.Errorf("Table 1 formatting:\n%s", out)
	}
}

func TestTable2SingleProgramShape(t *testing.T) {
	rows, err := Table2(Table2Config{Seed: 1, Restarts: -1, Programs: []string{"MM"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 architectures", len(rows))
	}
	for _, r := range rows {
		// Without communication SA matches HLF (no placement pressure).
		if r.NoComm.SA < r.NoComm.HLF-1e-9 {
			t.Errorf("%s %s: SA %g < HLF %g without comm", r.Program, r.Arch, r.NoComm.SA, r.NoComm.HLF)
		}
		// With communication both speedups drop.
		if r.Comm.SA > r.NoComm.SA || r.Comm.HLF > r.NoComm.HLF {
			t.Errorf("%s %s: communication helped", r.Program, r.Arch)
		}
		if r.PaperComm.SA == 0 {
			t.Errorf("%s %s: missing paper reference", r.Program, r.Arch)
		}
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "MM") || !strings.Contains(out, "% gain") {
		t.Errorf("Table 2 formatting:\n%s", out)
	}
}

func TestPaperTable2Lookup(t *testing.T) {
	cell := PaperTable2("NE", 2, true)
	if cell.SA != 5.5 || cell.HLF != 3.6 {
		t.Errorf("NE ring with comm = %+v", cell)
	}
	if got := PaperTable2("nope", 0, true); got.SA != 0 {
		t.Errorf("unknown program = %+v", got)
	}
	if got := PaperTable2("NE", 9, true); got.SA != 0 {
		t.Errorf("bad arch = %+v", got)
	}
}

func TestFigure1TraceShape(t *testing.T) {
	fig, err := Figure1(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Trace) == 0 {
		t.Fatal("empty trace")
	}
	if fig.Candidates < 1 || fig.Idle < 1 {
		t.Errorf("degenerate packet: %+v", fig)
	}
	// The annealing should not end worse than it started (best-restore).
	first, last := fig.Trace[0], fig.Trace[len(fig.Trace)-1]
	if last.Ftot > first.Ftot+1e-9 {
		t.Errorf("total cost rose: %g -> %g", first.Ftot, last.Ftot)
	}
	csv := fig.CSV()
	if !strings.HasPrefix(csv, "iteration,") || strings.Count(csv, "\n") != len(fig.Trace)+1 {
		t.Errorf("CSV malformed:\n%.200s", csv)
	}
	plot := fig.Plot(60, 12)
	for _, want := range []string{"Figure 1", "b = level cost"} {
		if !strings.Contains(plot, want) {
			t.Errorf("plot missing %q", want)
		}
	}
}

func TestFigure2GanttRenders(t *testing.T) {
	chart, res, err := Figure2(42, 150, 90)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
	for _, want := range []string{"P0", "P7", "Gantt chart: SA"} {
		if !strings.Contains(chart, want) {
			t.Errorf("chart missing %q", want)
		}
	}
}

func TestPacketsSummary(t *testing.T) {
	ps, err := Packets(42)
	if err != nil {
		t.Fatal(err)
	}
	if ps.TasksTotal != 95 {
		t.Errorf("tasks = %d, want 95", ps.TasksTotal)
	}
	// The paper reports 65 packets for 95 tasks; ours should be in the
	// same regime (more packets than processors, fewer than tasks).
	if ps.Packets < 20 || ps.Packets > 95 {
		t.Errorf("packets = %d, want tens", ps.Packets)
	}
	if ps.AvgCandidates < 1 || ps.AvgIdle < 1 {
		t.Errorf("averages = %+v", ps)
	}
}

func TestAnomalyResults(t *testing.T) {
	res, err := Anomaly(7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.LowerBound-10) > 1e-9 {
		t.Errorf("LB = %g, want 10", res.LowerBound)
	}
	if math.Abs(res.FIFO-13) > 1e-9 {
		t.Errorf("FIFO makespan = %g, want 13 (the anomaly)", res.FIFO)
	}
	if math.Abs(res.SA-10) > 1e-9 {
		t.Errorf("SA makespan = %g, want optimum 10", res.SA)
	}
	out := res.String()
	if !strings.Contains(out, "provably optimal") {
		t.Errorf("summary: %s", out)
	}
}

func TestAblationWeights(t *testing.T) {
	archs, err := Architectures()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := AblationWeights("MM", archs[0], 3, 0.2, 0.8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if math.Abs(p.Wb+p.Wc-1) > 1e-9 {
			t.Errorf("weights don't sum to 1: %+v", p)
		}
		if p.Speedup <= 0 {
			t.Errorf("no speedup at wb=%g", p.Wb)
		}
	}
	if pts[0].Wb != 0.2 || pts[3].Wb != 0.8 {
		t.Errorf("sweep endpoints: %+v", pts)
	}
	out := FormatWeights("MM", archs[0].Name, pts)
	if !strings.Contains(out, "wb") {
		t.Errorf("weights formatting:\n%s", out)
	}
	if _, err := AblationWeights("MM", archs[0], 3, 0, 1, 1); err == nil {
		t.Error("1-step sweep accepted")
	}
}

func TestAblationCooling(t *testing.T) {
	archs, err := Architectures()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := AblationCooling("MM", archs[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("schedules = %d", len(pts))
	}
	for _, p := range pts {
		if p.Speedup <= 0 || p.Moves <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
	}
	out := FormatCooling("MM", archs[0].Name, pts)
	if !strings.Contains(out, "geometric") {
		t.Errorf("cooling formatting:\n%s", out)
	}
}

func TestAblationRandomGraphs(t *testing.T) {
	archs, err := Architectures()
	if err != nil {
		t.Fatal(err)
	}
	res, err := AblationRandomGraphs(archs[0], 10, true, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graphs != 10 || res.SAWins+res.Ties+res.HLFWins != 10 {
		t.Fatalf("counts don't add up: %+v", res)
	}
	if !strings.Contains(res.String(), "random layered graphs") {
		t.Errorf("String: %s", res.String())
	}
	if _, err := AblationRandomGraphs(archs[0], 0, true, 5); err == nil {
		t.Error("0 graphs accepted")
	}
}

func TestRunSAandRunPolicy(t *testing.T) {
	g := programs.GrahamAnomaly()
	topo, err := topology.Complete(3)
	if err != nil {
		t.Fatal(err)
	}
	comm := topology.DefaultCommParams().NoComm()
	opt := core.DefaultOptions()
	opt.Seed = 1
	res, sched, err := RunSA(g, topo, comm, opt, machsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || len(sched.Packets()) == 0 {
		t.Error("RunSA incomplete")
	}
}

func TestTable2ParallelMatchesSequential(t *testing.T) {
	cfg := Table2Config{Seed: 3, Restarts: -1, Programs: []string{"NE"}}
	seq, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 6
	par, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("row counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("row %d differs:\nseq: %+v\npar: %+v", i, seq[i], par[i])
		}
	}
	// The acceptance bar is byte-identical tables, not just equal cells.
	if a, b := FormatTable2(seq), FormatTable2(par); a != b {
		t.Errorf("formatted tables differ between worker counts:\n%s\n%s", a, b)
	}
}

// TestTable2EngineWorkerCounts pins the engine-rebased fan-out at the
// worker counts of the acceptance matrix: the cells run on engine workers
// (worker-owned arena + pooled scheduler), and the rendered table must be
// byte-identical at 1, 4 and 16 workers.
func TestTable2EngineWorkerCounts(t *testing.T) {
	cfg := Table2Config{Seed: 17, Restarts: 2, Programs: []string{"NE", "FFT"}}
	var want string
	for _, workers := range []int{1, 4, 16} {
		cfg.Workers = workers
		rows, err := Table2(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := FormatTable2(rows)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d produced a different table:\n%s\nwant:\n%s", workers, got, want)
		}
	}
}

// TestTable2CooperativeWorkerCounts pins the cooperative-annealing
// acceptance matrix: with restarts sharing an incumbent (and, in the
// second variant, exchanging replicas in tempering mode), the rendered
// Table 2 must stay byte-identical at 1, 4 and 16 fan-out workers — the
// abandonment rule and replica exchanges are functions of the seeds and
// stage barriers alone, never of scheduling order.
func TestTable2CooperativeWorkerCounts(t *testing.T) {
	for _, mode := range []struct {
		name      string
		tempering bool
	}{
		{name: "cooperative"},
		{name: "tempering", tempering: true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			sa := core.DefaultOptions()
			sa.Restarts = 6
			sa.Cooperative = true
			sa.Tempering = mode.tempering
			cfg := Table2Config{Seed: 1991, Restarts: -1, SA: sa, Programs: []string{"NE"}}
			var want string
			for _, workers := range []int{1, 4, 16} {
				cfg.Workers = workers
				rows, err := Table2(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := FormatTable2(rows)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("workers=%d produced a different table:\n%s\nwant:\n%s", workers, got, want)
				}
			}
		})
	}
}

// The pre-generated-population pattern: random-graph studies aggregate
// identically at any worker count because every cell's seed is drawn
// before the fan-out.
func TestRandomGraphStudyDeterministicAcrossWorkerCounts(t *testing.T) {
	archs, err := Architectures()
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) string {
		res, err := ablationRandomGraphs(archs[0], 6, true, 23, workers)
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	seq := run(1)
	for _, workers := range []int{3, 8} {
		if par := run(workers); par != seq {
			t.Errorf("workers=%d changed the study:\nseq: %s\npar: %s", workers, seq, par)
		}
	}
}
