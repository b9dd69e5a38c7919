package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/taskgraph"
)

// checkLaw asserts the conservation law on a stats snapshot: every
// schedule item is answered by exactly one of solve, mem hit, disk hit,
// remote hit or coalesced wait. Warm solves are still solves.
func checkLaw(t *testing.T, st Stats) {
	t.Helper()
	got := st.Solves + st.Cache.Hits + st.Disk.Hits + st.Remote.Hits + st.Coalesced
	if got != st.Items {
		t.Fatalf("conservation law violated: solves %d + mem %d + disk %d + remote %d + coalesced %d = %d != items %d",
			st.Solves, st.Cache.Hits, st.Disk.Hits, st.Remote.Hits, st.Coalesced, got, st.Items)
	}
}

func postDelta(t *testing.T, base string, dreq DeltaRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(dreq)
	if err != nil {
		t.Fatal(err)
	}
	return post(t, base+"/v1/schedule/delta", body)
}

// TestDeltaWarmFlow walks the headline warm path end to end: solve, edit
// one task via /v1/schedule/delta, and verify the edited solve
// warm-starts from the base (X-DTServe-Warm), counts as a warm hit with
// stages saved, keeps the conservation law, and replays byte-identically
// from the warm key on a repeat.
func TestDeltaWarmFlow(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64})

	resp, _ := post(t, ts.URL+"/v1/schedule", wireRequest(t, "FFT", nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base solve status %d", resp.StatusCode)
	}
	baseAddr := resp.Header.Get("X-DTServe-Address")
	if baseAddr == "" {
		t.Fatal("base response carries no X-DTServe-Address")
	}
	if resp.Header.Get("X-DTServe-Warm") != "" {
		t.Fatal("cold solve claimed a warm start")
	}

	load := 5.0
	dreq := DeltaRequest{Base: baseAddr, Edits: []DeltaEdit{{Op: "set_load", Task: 0, Load: &load}}}
	dresp, dbody := postDelta(t, ts.URL, dreq)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d: %s", dresp.StatusCode, dbody)
	}
	if dresp.Header.Get("X-DTServe-Warm") == "" {
		t.Fatal("delta solve did not warm-start")
	}
	if got := dresp.Header.Get("X-DTServe-Cache"); got != "miss" {
		t.Fatalf("first delta cache tag = %q, want miss", got)
	}
	warmAddr := dresp.Header.Get("X-DTServe-Address")
	if warmAddr == "" || warmAddr == baseAddr {
		t.Fatalf("warm address %q must exist and differ from base %q", warmAddr, baseAddr)
	}
	var res Result
	if err := json.Unmarshal(dbody, &res); err != nil {
		t.Fatalf("delta body: %v", err)
	}
	if len(res.Schedule) == 0 || res.Makespan <= 0 {
		t.Fatalf("delta result empty: %+v", res)
	}

	st := getStats(t, ts.URL)
	if st.WarmHits != 1 {
		t.Fatalf("warm_hits = %d, want 1", st.WarmHits)
	}
	if st.WarmEpochsSaved == 0 {
		t.Fatal("warm solve saved no annealing stages")
	}
	if st.SimIndexEntries == 0 {
		t.Fatal("similarity index is empty after an sa solve")
	}
	checkLaw(t, st)

	// The identical delta replays the warm solve's bytes from the warm key.
	rresp, rbody := postDelta(t, ts.URL, dreq)
	if got := rresp.Header.Get("X-DTServe-Cache"); got != "hit" {
		t.Fatalf("repeat delta cache tag = %q, want hit", got)
	}
	if rresp.Header.Get("X-DTServe-Warm") == "" {
		t.Fatal("repeat delta lost its warm header")
	}
	if !bytes.Equal(dbody, rbody) {
		t.Fatal("repeat delta bytes differ from the first solve")
	}
	st = getStats(t, ts.URL)
	if st.WarmHits != 1 {
		t.Fatalf("warm key replay re-counted warm_hits: %d", st.WarmHits)
	}
	checkLaw(t, st)
}

// TestDeltaParityNoWarm is the correctness anchor: with "nowarm" the
// delta response must be byte-identical to a cold /v1/schedule call with
// the edited graph — same options, same key, same cached bytes.
func TestDeltaParityNoWarm(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64})

	resp, _ := post(t, ts.URL+"/v1/schedule", wireRequest(t, "FFT", nil))
	baseAddr := resp.Header.Get("X-DTServe-Address")
	if baseAddr == "" {
		t.Fatal("no base address")
	}

	load := 7.5
	dresp, dbody := postDelta(t, ts.URL, DeltaRequest{
		Base:   baseAddr,
		Edits:  []DeltaEdit{{Op: "set_load", Task: 0, Load: &load}},
		NoWarm: true,
	})
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d: %s", dresp.StatusCode, dbody)
	}
	if dresp.Header.Get("X-DTServe-Warm") != "" {
		t.Fatal("nowarm delta still warm-started")
	}

	// Build the same edited graph client-side and solve it "cold" with the
	// base's exact options: the server must recognize the identical
	// problem (cache hit) and serve the identical bytes.
	g, err := cliutil.BuildProgram("FFT")
	if err != nil {
		t.Fatal(err)
	}
	g.SetLoad(0, load)
	cold := wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Graph = g })
	cresp, cbody := post(t, ts.URL+"/v1/schedule", cold)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", cresp.StatusCode, cbody)
	}
	if got := cresp.Header.Get("X-DTServe-Cache"); got != "hit" {
		t.Fatalf("cold solve of the edited graph missed the delta's cache entry (tag %q)", got)
	}
	if !bytes.Equal(dbody, cbody) {
		t.Fatal("nowarm delta bytes differ from the cold solve of the edited graph")
	}
	if da, ca := dresp.Header.Get("X-DTServe-Address"), cresp.Header.Get("X-DTServe-Address"); da != ca {
		t.Fatalf("delta address %q != cold address %q for the same problem", da, ca)
	}
	checkLaw(t, getStats(t, ts.URL))
}

// TestDeltaErrors covers the endpoint's failure contract.
func TestDeltaErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64})
	resp, _ := post(t, ts.URL+"/v1/schedule", wireRequest(t, "FFT", nil))
	baseAddr := resp.Header.Get("X-DTServe-Address")

	load := 1.0
	cases := []struct {
		name string
		dreq DeltaRequest
		want int
	}{
		{"missing base", DeltaRequest{Edits: []DeltaEdit{{Op: "set_load", Task: 0, Load: &load}}}, http.StatusBadRequest},
		{"unknown base", DeltaRequest{Base: "no-such-address"}, http.StatusNotFound},
		{"bad op", DeltaRequest{Base: baseAddr, Edits: []DeltaEdit{{Op: "del_task", Task: 0}}}, http.StatusBadRequest},
		{"set_load out of range", DeltaRequest{Base: baseAddr, Edits: []DeltaEdit{{Op: "set_load", Task: 9999, Load: &load}}}, http.StatusBadRequest},
		{"set_load missing load", DeltaRequest{Base: baseAddr, Edits: []DeltaEdit{{Op: "set_load", Task: 0}}}, http.StatusBadRequest},
		{"add_task sparse id", DeltaRequest{Base: baseAddr, Edits: []DeltaEdit{{Op: "add_task", Task: 9999, Load: &load}}}, http.StatusBadRequest},
		{"add_edge missing task", DeltaRequest{Base: baseAddr, Edits: []DeltaEdit{{Op: "add_edge", From: 0, To: 9999, Bits: &load}}}, http.StatusBadRequest},
		{"del_edge absent", DeltaRequest{Base: baseAddr, Edits: []DeltaEdit{{Op: "del_edge", From: 0, To: 0}}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := postDelta(t, ts.URL, c.dreq)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.want, body)
		}
	}
}

// TestDeltaAddTaskAndEdge exercises the structural edits: growing the
// graph keeps the dense-ID invariant and the projected seed still warms
// the solve.
func TestDeltaAddTaskAndEdge(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64})
	resp, _ := post(t, ts.URL+"/v1/schedule", wireRequest(t, "FFT", nil))
	baseAddr := resp.Header.Get("X-DTServe-Address")

	var base Result
	_, bb := post(t, ts.URL+"/v1/schedule", wireRequest(t, "FFT", nil))
	if err := json.Unmarshal(bb, &base); err != nil {
		t.Fatal(err)
	}
	n := len(base.Schedule)

	load, bits := 3.0, 64.0
	dresp, dbody := postDelta(t, ts.URL, DeltaRequest{
		Base: baseAddr,
		Edits: []DeltaEdit{
			{Op: "add_task", Task: n, Name: "extra", Load: &load},
			{Op: "add_edge", From: 0, To: n, Bits: &bits},
		},
	})
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d: %s", dresp.StatusCode, dbody)
	}
	if dresp.Header.Get("X-DTServe-Warm") == "" {
		t.Fatal("structural delta did not warm-start")
	}
	var res Result
	if err := json.Unmarshal(dbody, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule) != n+1 {
		t.Fatalf("edited solve scheduled %d tasks, want %d", len(res.Schedule), n+1)
	}
	checkLaw(t, getStats(t, ts.URL))
}

// TestDeltaEditsAllWarmStart is the delta-rescheduling verdict: one base
// solve each for NE, GJ, FFT and MM, then 40 set_load edits on task 0
// from 8 concurrent clients, edit i against base i%4 with a load of its
// own. Every edited graph is a near miss of its base and no two edits
// share a key, so every answer must be a warm-started solve: none may
// come from memory.
func TestDeltaEditsAllWarmStart(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 4096})

	programs := []string{"NE", "GJ", "FFT", "MM"}
	bases := make([]string, len(programs))
	for i, program := range programs {
		g, err := cliutil.BuildProgram(program)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(ScheduleRequest{Graph: g, Topo: "hypercube:3", Seed: int64(1991 + i)})
		if err != nil {
			t.Fatal(err)
		}
		resp, rbody := post(t, ts.URL+"/v1/schedule", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("base %s: status %d: %s", program, resp.StatusCode, rbody)
		}
		if bases[i] = resp.Header.Get("X-DTServe-Address"); bases[i] == "" {
			t.Fatalf("base %s: no X-DTServe-Address", program)
		}
	}
	memHits := getStats(t, ts.URL).Cache.Hits

	const edits, clients = 40, 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < edits; i += clients {
				load := 2.0 + 0.25*float64(i)
				body, err := json.Marshal(DeltaRequest{
					Base:  bases[i%len(bases)],
					Edits: []DeltaEdit{{Op: "set_load", Task: 0, Load: &load}},
				})
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/v1/schedule/delta", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("delta %d: %v", i, err)
					return
				}
				rbody, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case err != nil:
					t.Errorf("delta %d: reading the body: %v", i, err)
				case resp.StatusCode != http.StatusOK:
					t.Errorf("delta %d: status %d: %s", i, resp.StatusCode, rbody)
				case resp.Header.Get("X-DTServe-Warm") == "":
					t.Errorf("delta %d: answered without X-DTServe-Warm", i)
				}
			}
		}(c)
	}
	wg.Wait()

	st := getStats(t, ts.URL)
	if st.WarmHits != edits {
		t.Fatalf("warm_hits = %d, want %d (one warm solve per delta)", st.WarmHits, edits)
	}
	if st.Cache.Hits != memHits {
		t.Fatalf("memory hits grew from %d to %d during the deltas, want none", memHits, st.Cache.Hits)
	}
	if err := CheckLaw(st); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartPlainRequest: with Config.WarmStart, a near-miss plain
// /v1/schedule call seeds from the similarity index's nearest neighbor;
// without it, the same call solves cold.
func TestWarmStartPlainRequest(t *testing.T) {
	edited := func(t *testing.T) []byte {
		g, err := cliutil.BuildProgram("FFT")
		if err != nil {
			t.Fatal(err)
		}
		g.SetLoad(0, g.Load(0)+2)
		return wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Graph = g })
	}

	t.Run("enabled", func(t *testing.T) {
		_, ts := newTestServer(t, Config{CacheSize: 64, WarmStart: true})
		post(t, ts.URL+"/v1/schedule", wireRequest(t, "FFT", nil))
		resp, _ := post(t, ts.URL+"/v1/schedule", edited(t))
		if resp.Header.Get("X-DTServe-Warm") == "" {
			t.Fatal("near-miss request did not warm-start with WarmStart on")
		}
		st := getStats(t, ts.URL)
		if st.WarmHits != 1 {
			t.Fatalf("warm_hits = %d, want 1", st.WarmHits)
		}
		checkLaw(t, st)
	})
	t.Run("disabled", func(t *testing.T) {
		_, ts := newTestServer(t, Config{CacheSize: 64})
		post(t, ts.URL+"/v1/schedule", wireRequest(t, "FFT", nil))
		resp, _ := post(t, ts.URL+"/v1/schedule", edited(t))
		if resp.Header.Get("X-DTServe-Warm") != "" {
			t.Fatal("plain request warm-started without WarmStart")
		}
		if st := getStats(t, ts.URL); st.WarmHits != 0 {
			t.Fatalf("warm_hits = %d, want 0", st.WarmHits)
		}
	})
}

// TestNearMissRepeatReplaysWarmAnswer: with WarmStart on, the same
// near-miss bytes sent twice are warm-solved once. The second send must
// not seed from the first one's answer (indexed at distance 0 from its
// own request) but pick the same base, land on the same warm key and
// replay the first answer as a hit.
func TestNearMissRepeatReplaysWarmAnswer(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 64, WarmStart: true})
	g, err := cliutil.BuildProgram("FFT")
	if err != nil {
		t.Fatal(err)
	}
	g.SetLoad(0, g.Load(0)+2)
	nearMiss := wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Graph = g })
	post(t, ts.URL+"/v1/schedule", wireRequest(t, "FFT", nil))
	first, firstBody := post(t, ts.URL+"/v1/schedule", nearMiss)
	second, secondBody := post(t, ts.URL+"/v1/schedule", nearMiss)
	if first.Header.Get("X-DTServe-Warm") == "" || first.Header.Get("X-DTServe-Cache") != "miss" {
		t.Fatalf("send 1: cache %q, warm %q; want a warm-started miss",
			first.Header.Get("X-DTServe-Cache"), first.Header.Get("X-DTServe-Warm"))
	}
	if got, want := second.Header.Get("X-DTServe-Address"), first.Header.Get("X-DTServe-Address"); second.Header.Get("X-DTServe-Cache") != "hit" || got != want {
		t.Fatalf("send 2: cache %q at %s; want a hit at send 1's address %s", second.Header.Get("X-DTServe-Cache"), got, want)
	}
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatal("send 2 replayed a different body")
	}
	if st := getStats(t, ts.URL); st.Solves != 2 || st.WarmHits != 1 {
		t.Fatalf("solves = %d, warm_hits = %d; want the base and one warm solve", st.Solves, st.WarmHits)
	}
}

// TestSimIndexPersistence: the index round-trips through its sidecar
// file — a reloaded index answers Get and Lookup like the original.
func TestSimIndexPersistence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "simindex.json")

	ix := NewSimIndex(8)
	mk := func(key string, seed int64) simEntry {
		g, err := taskgraph.Chain("c"+key, 5, float64(seed)+1, 10)
		if err != nil {
			t.Fatal(err)
		}
		return simEntry{Key: key, Topo: "ring:4", Sketch: g.Sketch(),
			Graph: json.RawMessage(`{"name":"c` + key + `"}`), NumTasks: 5}
	}
	a, b := mk("aaa", 1), mk("bbb", 2)
	ix.Add(a)
	ix.Add(b)
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}

	re := NewSimIndex(8)
	if err := re.Load(path); err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reloaded Len = %d, want 2", re.Len())
	}
	got, ok := re.Get("aaa")
	if !ok || got.Topo != "ring:4" || got.NumTasks != 5 {
		t.Fatalf("reloaded Get(aaa) = %+v, %v", got, ok)
	}
	if _, _, ok := re.Lookup(a.Sketch, "self", "ring:4", 0.5); !ok {
		t.Fatal("reloaded index Lookup found nothing")
	}

	// Loading a missing file is not an error (fresh start).
	if err := NewSimIndex(8).Load(filepath.Join(dir, "absent.json")); err != nil {
		t.Fatalf("missing index file: %v", err)
	}
}

// TestSimIndexEviction: the index is bounded; the oldest entry falls out.
// The ring grows one slot per entry until it reaches its size.
func TestSimIndexEviction(t *testing.T) {
	ix := NewSimIndex(2)
	for i := 0; i < 3; i++ {
		g, err := taskgraph.Chain(fmt.Sprintf("c%d", i), 4, float64(i)+1, 10)
		if err != nil {
			t.Fatal(err)
		}
		ix.Add(simEntry{Key: fmt.Sprintf("k%d", i), Topo: "ring:2",
			Sketch: g.Sketch(), Graph: json.RawMessage(`{}`), NumTasks: 4})
		if want := min(i+1, 2); len(ix.entries) != want {
			t.Fatalf("after %d adds the ring has %d slots, want %d", i+1, len(ix.entries), want)
		}
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
	if _, ok := ix.Get("k0"); ok {
		t.Fatal("oldest entry survived eviction")
	}
	for _, k := range []string{"k1", "k2"} {
		if _, ok := ix.Get(k); !ok {
			t.Fatalf("entry %s evicted too early", k)
		}
	}
}

// TestSimIndexConcurrency hammers the index from many goroutines under
// -race: adds, lookups, gets and saves must be mutually safe.
func TestSimIndexConcurrency(t *testing.T) {
	ix := NewSimIndex(32)
	dir := t.TempDir()
	sketches := make([]taskgraph.Sketch, 16)
	for i := range sketches {
		g, err := taskgraph.Chain(fmt.Sprintf("c%d", i), 4+i, float64(i)+1, 10)
		if err != nil {
			t.Fatal(err)
		}
		sketches[i] = g.Sketch()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("w%d-%d", w, i%24)
				switch i % 4 {
				case 0:
					ix.Add(simEntry{Key: k, Topo: "ring:2", Sketch: sketches[i%16],
						Graph: json.RawMessage(`{}`), NumTasks: 4})
				case 1:
					ix.Get(k)
				case 2:
					ix.Lookup(sketches[i%16], k, "ring:2", 0.9)
				case 3:
					if i%40 == 3 {
						if err := ix.Save(filepath.Join(dir, fmt.Sprintf("ix%d.json", w))); err != nil {
							t.Error(err)
						}
					} else {
						ix.Len()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if ix.Len() > 32 {
		t.Fatalf("index exceeded its bound: %d", ix.Len())
	}
}

// TestWarmIndexPersistsAcrossRestart: an sa solve lands in the on-disk
// similarity index; a restarted server answers deltas against it without
// re-solving the base.
func TestWarmIndexPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	svc1, ts1 := newTestServer(t, Config{CacheSize: 64, CacheDir: dir})
	resp, _ := post(t, ts1.URL+"/v1/schedule", wireRequest(t, "FFT", nil))
	baseAddr := resp.Header.Get("X-DTServe-Address")
	ts1.Close()
	svc1.Close()

	_, ts2 := newTestServer(t, Config{CacheSize: 64, CacheDir: dir})
	load := 4.0
	dresp, dbody := postDelta(t, ts2.URL, DeltaRequest{
		Base:  baseAddr,
		Edits: []DeltaEdit{{Op: "set_load", Task: 0, Load: &load}},
	})
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delta after restart: status %d: %s", dresp.StatusCode, dbody)
	}
	if dresp.Header.Get("X-DTServe-Warm") == "" {
		t.Fatal("restarted server did not warm-start from the reloaded index")
	}
	checkLaw(t, getStats(t, ts2.URL))
}

// TestCorruptSimIndexCostsOnlyWarmth: a hostile simindex.json in the
// cache directory costs the server its restored warmth and nothing else.
// It still starts, answers byte-identically to a server without the file,
// warm-starts a delta against the fresh answer, keeps the conservation
// law, and replaces the file with a sound index on Close.
func TestCorruptSimIndexCostsOnlyWarmth(t *testing.T) {
	req := wireRequest(t, "FFT", nil)

	refDir := t.TempDir()
	_, refTS, stopRef := startServer(t, Config{CacheSize: 64, CacheDir: refDir})
	resp, want := post(t, refTS.URL+"/v1/schedule", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference status %d: %s", resp.StatusCode, want)
	}
	stopRef()
	sound, err := os.ReadFile(filepath.Join(refDir, "simindex.json"))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		bytes []byte
	}{
		{"garbage", []byte("\x00\xffnot json at all")},
		{"truncated", sound[:len(sound)/2]},
		{"wrong types", []byte(`{"entries":[{"key":7,"topo":["ring:4"],"sketch":"x","num_tasks":"many"}]}`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "simindex.json")
			if err := os.WriteFile(path, tc.bytes, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := NewSimIndex(8).Load(path); err == nil {
				t.Fatal("the hostile file loads cleanly")
			}
			svc, ts, stop := startServer(t, Config{CacheSize: 64, CacheDir: dir})

			resp, got := post(t, ts.URL+"/v1/schedule", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("schedule status %d: %s", resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("body differs from a server without the index file")
			}
			load := 4.0
			dresp, dbody := postDelta(t, ts.URL, DeltaRequest{
				Base:  resp.Header.Get("X-DTServe-Address"),
				Edits: []DeltaEdit{{Op: "set_load", Task: 0, Load: &load}},
			})
			if dresp.StatusCode != http.StatusOK {
				t.Fatalf("delta status %d: %s", dresp.StatusCode, dbody)
			}
			if dresp.Header.Get("X-DTServe-Warm") == "" {
				t.Fatal("delta did not warm-start")
			}
			if err := CheckLaw(svc.Stats()); err != nil {
				t.Fatal(err)
			}
			stop()

			re := NewSimIndex(8)
			if err := re.Load(path); err != nil {
				t.Fatalf("index saved on Close does not load: %v", err)
			}
			if re.Len() != 2 {
				t.Fatalf("reloaded index has %d entries, want 2", re.Len())
			}
		})
	}
}
