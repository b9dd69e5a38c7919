package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceFastPath(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Fatalf("nil trace ID = %q, want empty", tr.ID())
	}
	tr.Observe(StageSolve, time.Now(), time.Millisecond)
	tr.ObserveSub("portfolio:sa", time.Now(), time.Millisecond)
	tr.Annotate("k", "v")
	if td := tr.Snapshot(time.Second); td != nil {
		t.Fatalf("nil trace snapshot = %+v, want nil", td)
	}
	Release(tr) // must not panic

	ctx := With(context.Background(), nil)
	if got := FromContext(ctx); got != nil {
		t.Fatalf("FromContext(With(nil)) = %v, want nil", got)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext(background) = %v, want nil", got)
	}
}

func TestTraceRecordsOrderedStages(t *testing.T) {
	t0 := time.Now()
	tr := NewTrace("abc123", t0)
	defer Release(tr)

	// Record out of order on purpose: Snapshot sorts by start offset.
	tr.Observe(StageSolve, t0.Add(3*time.Millisecond), 5*time.Millisecond, KV{"solver", "sa"})
	tr.Observe(StageDecode, t0, time.Millisecond)
	tr.Observe(StageCanonicalize, t0.Add(time.Millisecond), 2*time.Millisecond)
	tr.ObserveSub("portfolio:etf", t0.Add(4*time.Millisecond), time.Millisecond)
	tr.Annotate("lane", "interactive")

	td := tr.Snapshot(10 * time.Millisecond)
	if td.ID != "abc123" {
		t.Fatalf("ID = %q", td.ID)
	}
	if td.TotalNS != (10 * time.Millisecond).Nanoseconds() {
		t.Fatalf("TotalNS = %d", td.TotalNS)
	}
	want := []string{StageDecode, StageCanonicalize, StageSolve, "portfolio:etf"}
	if len(td.Stages) != len(want) {
		t.Fatalf("got %d stages, want %d: %+v", len(td.Stages), len(want), td.Stages)
	}
	for i, name := range want {
		if td.Stages[i].Stage != name {
			t.Fatalf("stage[%d] = %q, want %q (all: %+v)", i, td.Stages[i].Stage, name, td.Stages)
		}
	}
	if td.Stages[3].Depth != 1 {
		t.Fatalf("sub-stage depth = %d, want 1", td.Stages[3].Depth)
	}
	if td.Stages[2].Notes["solver"] != "sa" {
		t.Fatalf("solve notes = %v", td.Stages[2].Notes)
	}
	if td.Notes["lane"] != "interactive" {
		t.Fatalf("trace notes = %v", td.Notes)
	}

	// Snapshot is detached: releasing the trace must not corrupt it.
	Release(tr)
	if td.Stages[0].Stage != StageDecode {
		t.Fatal("snapshot mutated by Release")
	}
}

func TestTraceConcurrentObserve(t *testing.T) {
	tr := NewTrace(NewID(), time.Now())
	defer Release(tr)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.ObserveSub("portfolio:sa", time.Now(), time.Microsecond)
				tr.Annotate("k", "v")
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Snapshot(0).Stages); got != 800 {
		t.Fatalf("recorded %d stages, want 800", got)
	}
}

func TestContextCarriage(t *testing.T) {
	tr := NewTrace("id1", time.Now())
	defer Release(tr)
	ctx := With(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}
	// Stripping: portfolio members must not see the parent trace.
	stripped := With(ctx, nil)
	if got := FromContext(stripped); got != nil {
		t.Fatalf("stripped ctx still carries %p", got)
	}
}

func TestNewID(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("id %q has length %d, want 16", id, len(id))
		}
		if strings.Trim(id, "0123456789abcdef") != "" {
			t.Fatalf("id %q is not lowercase hex", id)
		}
		seen[id] = true
	}
	if len(seen) < 99 {
		t.Fatalf("only %d distinct IDs in 100 draws", len(seen))
	}
}

func TestSampler(t *testing.T) {
	var s Sampler
	if s.Sample() {
		t.Fatal("zero-value sampler sampled")
	}
	s.SetEvery(1)
	for i := 0; i < 5; i++ {
		if !s.Sample() {
			t.Fatal("every=1 sampler skipped")
		}
	}
	s.SetEvery(4)
	hits := 0
	for i := 0; i < 400; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("every=4 sampled %d of 400", hits)
	}
	s.SetEvery(0)
	if s.Sample() {
		t.Fatal("disabled sampler sampled")
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	h.Observe(500 * time.Microsecond) // bucket le=0.001
	h.Observe(2 * time.Millisecond)   // le=0.0025
	h.Observe(2 * time.Millisecond)
	h.Observe(20 * time.Second) // +Inf only
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Cum[0] != 1 || s.Cum[1] != 3 {
		t.Fatalf("cum = %v", s.Cum)
	}
	if s.Cum[len(s.Cum)-1] != 4 {
		t.Fatalf("+Inf bucket = %d, want 4", s.Cum[len(s.Cum)-1])
	}
	for i := 1; i < len(s.Cum); i++ {
		if s.Cum[i] < s.Cum[i-1] {
			t.Fatalf("buckets not cumulative at %d: %v", i, s.Cum)
		}
	}

	var nilH *Histogram
	nilH.Observe(time.Second) // no-op, no panic
	if ns := nilH.Snapshot(); ns.Count != 0 {
		t.Fatalf("nil histogram count = %d", ns.Count)
	}
}

func TestHistogramWriteProm(t *testing.T) {
	h := NewHistogram([]float64{0.001, 1})
	h.Observe(2 * time.Millisecond)
	var b strings.Builder
	h.Snapshot().WriteProm(&b, "x_seconds", `lane="batch"`)
	out := b.String()
	for _, want := range []string{
		`x_seconds_bucket{lane="batch",le="0.001"} 0`,
		`x_seconds_bucket{lane="batch",le="1"} 1`,
		`x_seconds_bucket{lane="batch",le="+Inf"} 1`,
		`x_seconds_count{lane="batch"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	b.Reset()
	h.Snapshot().WriteProm(&b, "y_seconds", "")
	if !strings.Contains(b.String(), `y_seconds_bucket{le="+Inf"} 1`) {
		t.Fatalf("unlabeled exposition:\n%s", b.String())
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		0.005:   "0.005",
		1:       "1",
		2.5:     "2.5",
		0.00001: "0.00001",
	}
	for in, want := range cases {
		if got := TrimFloat(in); got != want {
			t.Fatalf("TrimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRingRecentAndSlowest(t *testing.T) {
	r := NewRing(4, 2)
	mk := func(id string, totalMS int64) *TraceData {
		return &TraceData{ID: id, TotalNS: totalMS * int64(time.Millisecond)}
	}
	r.Add(mk("a", 5))
	r.Add(mk("b", 50))
	r.Add(mk("c", 1))
	r.Add(mk("d", 10))
	r.Add(mk("e", 3)) // wraps; evicts "a" from recent

	s := r.Snapshot()
	if s.Total != 5 {
		t.Fatalf("total = %d", s.Total)
	}
	gotRecent := []string{}
	for _, td := range s.Recent {
		gotRecent = append(gotRecent, td.ID)
	}
	if strings.Join(gotRecent, "") != "edcb" {
		t.Fatalf("recent = %v, want [e d c b]", gotRecent)
	}
	if len(s.Slowest) != 2 || s.Slowest[0].ID != "b" || s.Slowest[1].ID != "d" {
		ids := []string{}
		for _, td := range s.Slowest {
			ids = append(ids, td.ID)
		}
		t.Fatalf("slowest = %v, want [b d]", ids)
	}

	var nilRing *Ring
	nilRing.Add(mk("x", 1)) // no-op
	ns := nilRing.Snapshot()
	if len(ns.Recent) != 0 || len(ns.Slowest) != 0 {
		t.Fatalf("nil ring snapshot = %+v", ns)
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8, 4)
	r.Add(&TraceData{ID: "only", TotalNS: 1})
	s := r.Snapshot()
	if len(s.Recent) != 1 || s.Recent[0].ID != "only" {
		t.Fatalf("recent = %+v", s.Recent)
	}
	if len(s.Slowest) != 1 {
		t.Fatalf("slowest = %+v", s.Slowest)
	}
}

func TestTracePoolReuse(t *testing.T) {
	tr := NewTrace("first", time.Now())
	tr.Observe(StageDecode, time.Now(), time.Millisecond)
	Release(tr)
	tr2 := NewTrace("second", time.Now())
	defer Release(tr2)
	if td := tr2.Snapshot(0); len(td.Stages) != 0 {
		t.Fatalf("pooled trace leaked %d stages from its prior life", len(td.Stages))
	}
	if tr2.ID() != "second" {
		t.Fatalf("pooled trace ID = %q", tr2.ID())
	}
}

// TestWriteProm renders a snapshot that uses every part of the `metric`
// tag grammar and compares the exposition line for line.
func TestWriteProm(t *testing.T) {
	type tier struct {
		Hits uint64 `json:"hits" a:"counter,A hits, mirrored." b:"counter,B hits."`
	}
	type lane struct {
		Queued  int   `json:"queued" metric:"gauge,Queued jobs."`
		DelayNS int64 `json:"delay_ns" metric:"gauge,Worst delay."`
	}
	snap := struct {
		Up    bool              `json:"up" metric:"gauge,1 while up."`
		Skip  int               `json:"-"`
		By    map[string]uint64 `json:"by" metric:"counter,name=runs,label=solver,Runs." also:"counter,name=outcome,label=solver,outcome=ok,Outcomes (ok; error)."`
		Errs  map[string]uint64 `json:"errs,omitempty" metric:"counter,name=outcome,label=solver,outcome=error"`
		Pairs map[string]uint64 `json:"pairs" metric:"counter,label=member|result,Pairs."`
		A     tier              `json:"a"`
		B     tier              `json:"b"`
		Lanes map[string]lane   `json:"lanes" metric:"name=lane,label=lane"`
		Empty map[string]uint64 `json:"empty" metric:"gauge,label=k,Declared while empty."`
	}{
		Up:    true,
		Skip:  7,
		By:    map[string]uint64{"sa": 3, "hlf": 1},
		Errs:  map[string]uint64{"sa": 2},
		Pairs: map[string]uint64{"sa|win": 4, "no-separator": 9},
		A:     tier{Hits: 5},
		B:     tier{Hits: 6},
		Lanes: map[string]lane{"interactive": {Queued: 1, DelayNS: 2_500_000}, "batch": {Queued: 2}},
	}
	var b strings.Builder
	WriteProm(&b, "x", snap)
	want := `# HELP x_up 1 while up.
# TYPE x_up gauge
x_up 1
# HELP x_runs_total Runs.
# TYPE x_runs_total counter
x_runs_total{solver="hlf"} 1
x_runs_total{solver="sa"} 3
# HELP x_outcome_total Outcomes (ok; error).
# TYPE x_outcome_total counter
x_outcome_total{solver="hlf",outcome="ok"} 1
x_outcome_total{solver="sa",outcome="ok"} 3
x_outcome_total{solver="sa",outcome="error"} 2
# HELP x_pairs_total Pairs.
# TYPE x_pairs_total counter
x_pairs_total{member="sa",result="win"} 4
# HELP x_a_hits_total A hits, mirrored.
# TYPE x_a_hits_total counter
x_a_hits_total 5
# HELP x_b_hits_total B hits.
# TYPE x_b_hits_total counter
x_b_hits_total 6
# HELP x_lane_queued Queued jobs.
# TYPE x_lane_queued gauge
x_lane_queued{lane="batch"} 2
x_lane_queued{lane="interactive"} 1
# HELP x_lane_delay_seconds Worst delay.
# TYPE x_lane_delay_seconds gauge
x_lane_delay_seconds{lane="batch"} 0
x_lane_delay_seconds{lane="interactive"} 0.0025
# HELP x_empty Declared while empty.
# TYPE x_empty gauge
`
	if got := b.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
