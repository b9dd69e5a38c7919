package expt

import (
	"math"
	"testing"
)

func TestScalingCurveShape(t *testing.T) {
	pts, err := Scaling("MM", 4, 19)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d, want dims 0..4", len(pts))
	}
	if pts[0].Procs != 1 || pts[4].Procs != 16 {
		t.Fatalf("proc counts wrong: %+v", pts)
	}
	// On one processor both schedulers give speedup exactly 1 (no
	// messages possible).
	if math.Abs(pts[0].SA-1) > 1e-9 || math.Abs(pts[0].HLF-1) > 1e-9 || pts[0].Messages != 0 {
		t.Errorf("1-proc point = %+v, want speedup 1, 0 messages", pts[0])
	}
	// Speedup grows from 1 to several as processors are added.
	if pts[4].SA <= pts[0].SA || pts[4].SA <= 1.5 {
		t.Errorf("no scaling: %+v", pts)
	}
	out := FormatScaling("MM", pts)
	if len(out) == 0 {
		t.Error("empty formatting")
	}
	if _, err := Scaling("MM", 99, 1); err == nil {
		t.Error("huge dim accepted")
	}
	if _, err := Scaling("nope", 2, 1); err == nil {
		t.Error("unknown program accepted")
	}
}

// The scaling sweep must be a pure function of its seed at any worker
// count: byte-identical formatted output sequential vs parallel.
func TestScalingParallelMatchesSequential(t *testing.T) {
	seq, err := ScalingStudy(ScalingConfig{Prog: "MM", MaxDim: 2, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ScalingStudy(ScalingConfig{Prog: "MM", MaxDim: 2, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := FormatScaling("MM", seq), FormatScaling("MM", par); a != b {
		t.Errorf("worker count changed the table:\nsequential:\n%s\nparallel:\n%s", a, b)
	}
}
