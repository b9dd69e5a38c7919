package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// bodies returns the first n request bodies of every client of every
// workload under seed, without a server: chain addresses are stand-ins.
func bodies(t *testing.T, seed int64, n int) map[string][][]byte {
	t.Helper()
	out := map[string][][]byte{}
	for _, sp := range specs {
		b, err := newBase(seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sp.build(b)
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := w.(*deltaEdit); ok {
			for j, ch := range d.chains {
				ch.addr = fmt.Sprintf("base-%d", j)
			}
		}
		for i := 0; i < n; i++ {
			out[sp.name] = append(out[sp.name], w.request(i%2, i/2, false).body)
		}
	}
	return out
}

func TestInputsAreDeterministicPerSeed(t *testing.T) {
	a, b, c := bodies(t, 1, 40), bodies(t, 1, 40), bodies(t, 2, 40)
	for name := range a {
		differ := false
		for i := range a[name] {
			if !bytes.Equal(a[name][i], b[name][i]) {
				t.Fatalf("%s request %d differs between two builds of seed 1", name, i)
			}
			differ = differ || !bytes.Equal(a[name][i], c[name][i])
		}
		if !differ {
			t.Errorf("%s: seeds 1 and 2 give identical requests", name)
		}
	}
	ph := phase{count: 50, next: []int{0}}
	x, y, z := arrivals(1, 600, ph), arrivals(1, 600, ph), arrivals(2, 600, ph)
	if fmt.Sprint(x) != fmt.Sprint(y) || fmt.Sprint(x) == fmt.Sprint(z) {
		t.Error("arrival times do not follow the seed")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		q          float64
		want       float64
		supported  bool
		wantBeyond int
	}{
		{1000, 0.99, 990, true, 10},
		{999, 0.99, 990, false, 9},
		{1000, 0.50, 500, true, 500},
		{10, 0.99, 10, false, 0},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		v, beyond := percentile(xs, tc.q)
		if v != tc.want || beyond != tc.wantBeyond || (beyond >= minBeyond) != tc.supported {
			t.Errorf("n=%d q=%g: got %g with %d beyond, want %g with %d", tc.n, tc.q, v, beyond, tc.want, tc.wantBeyond)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{{Start: 20, End: 50}, {Start: 10, End: 30}, {Start: 90, End: 120}, {Start: 200, End: 300}}
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("self time %d, want 50: [10,50) and [90,100) are covered", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children %d, want 100", got)
	}
}

// numbered sends request n as the body "n" to /n and accepts any answer.
type numbered struct{}

func (numbered) setup(*client, bool) ([]sample, error) { return nil, nil }
func (numbered) request(_, n int, _ bool) *request {
	return &request{path: "/n", body: []byte(strconv.Itoa(n))}
}
func (numbered) check(*request, *answer) (float64, error) { return 0, nil }
func (numbered) verify(_, _ service.Stats) error          { return nil }

func TestOpenLoopChargesAStallToTheRequestsQueuedBehindIt(t *testing.T) {
	const stall = 100 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		if string(b) == "0" {
			time.Sleep(stall)
		}
	}))
	defer ts.Close()
	dues := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	res := runOpen(numbered{}, newClient(ts.URL, 1), 1, dues, phase{count: len(dues), next: []int{0}})
	for i, s := range res.all() {
		if err := s.err(); err != nil {
			t.Fatal(err)
		}
		// On one connection arrival i cannot start before the stalled
		// arrival 0 ends, and its latency runs from its due time.
		if floor := stall - dues[i]; s.lat < floor {
			t.Errorf("arrival %d: latency %v, want at least %v", i, s.lat, floor)
		}
		if floor := stall - dues[i]; i > 0 && s.x.queue < floor {
			t.Errorf("arrival %d: queued %v, want at least %v", i, s.x.queue, floor)
		}
	}
}

// corrupting passes answers through, rewriting the first "proc" of every
// other schedule answer once armed: the processor becomes one no machine
// of the benchmark has, and the bytes no longer match the cached ones.
type corrupting struct {
	next  http.Handler
	armed atomic.Bool
	n     atomic.Int64
}

func (c *corrupting) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	c.next.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if c.armed.Load() && r.URL.Path == "/v1/schedule" && c.n.Add(1)%2 == 0 {
		body = bytes.Replace(body, []byte(`"proc":`), []byte(`"proc":1`), 1)
	}
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body)
}

func TestCorruptAnswersAreCountedAsFailures(t *testing.T) {
	for _, name := range []string{"cold_solve", "warm_hit"} {
		t.Run(name, func(t *testing.T) {
			svc, err := service.New(service.Config{CacheSize: 4096})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			h := &corrupting{next: svc.Handler()}
			ts := httptest.NewServer(h)
			defer ts.Close()
			sp, _ := specByName(name)
			b, err := newBase(3, 2)
			if err != nil {
				t.Fatal(err)
			}
			w, err := sp.build(b)
			if err != nil {
				t.Fatal(err)
			}
			c := newClient(ts.URL, 2)
			if _, err := w.setup(c, false); err != nil {
				t.Fatal(err)
			}
			h.armed.Store(true)
			res := runClosed(w, c, 2, phase{count: 5, next: make([]int, 2)})
			failed, sent := 0, 0
			res.each(func(s *sample) {
				sent++
				if s.err() != nil {
					failed++
				}
			})
			if failed != 5 {
				t.Errorf("%d of %d answers failed, want the 5 corrupted ones", failed, sent)
			}
		})
	}
}

// smoke runs every workload with 20 timed requests against a live server.
func smoke(t *testing.T, traced bool) {
	if testing.Short() {
		t.Skip("solves on a live server")
	}
	start := time.Now()
	for _, sp := range specs {
		var out bytes.Buffer
		res, err := run(config{workload: sp.name, seed: 5, requests: 20, calSpan: 10 * time.Millisecond, trace: traced}, &out)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 20 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s",
				sp.name, res.Correct, res.Attempted, res.Failed, out.String())
		}
	}
	t.Logf("all workloads in %v", time.Since(start))
}

func TestSmokeEveryWorkload(t *testing.T) { smoke(t, false) }

// The traced pass also replays the cold solves through the library and
// fails unless the replayed bytes equal the server's.
func TestTracedPassEveryWorkload(t *testing.T) { smoke(t, true) }

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: %s (%s) here, %s (%s) in BENCHMARK.json", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, doc.EndToEnd)
	same("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(specs), len(doc.Workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q here, %q in BENCHMARK.json", i, specs[i].name, w.Name)
		}
	}
}
