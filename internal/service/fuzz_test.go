package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// FuzzScheduleWire drives arbitrary bytes at the schedule endpoint's
// request decoding: malformed, truncated or hostile JSON must come back
// as a structured 4xx — never a panic, never a 5xx, and never a solver
// invocation. Mirrors internal/taskgraph's FuzzUnmarshalJSON, one wire
// layer up.
func FuzzScheduleWire(f *testing.F) {
	valid := `{"graph":{"name":"g","tasks":[{"id":0,"load":5},{"id":1,"load":5}],` +
		`"edges":[{"from":0,"to":1,"bits":40}]},"topo":"hypercube:2","solver":"hlf"}`
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)/2])) // truncated mid-payload
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`"schedule me"`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"graph":null,"topo":"hypercube:3"}`))
	f.Add([]byte(`{"graph":{"name":"x","tasks":[{"id":0,"load":1}],"edges":[]},"topo":"mobius:4"}`))
	f.Add([]byte(`{"graph":{"name":"x","tasks":[{"id":0,"load":-1}],"edges":[]},"topo":"ring:2"}`))
	f.Add([]byte(`{"graph":{"name":"x","tasks":[{"id":0,"load":1},{"id":1,"load":1}],` +
		`"edges":[{"from":0,"to":1,"bits":1},{"from":1,"to":0,"bits":1}]},"topo":"ring:2"}`)) // cycle
	f.Add([]byte(`{"graph":{"name":"x","tasks":[{"id":0,"load":1}],"edges":[]},"topo":"hypercube:2","restarts":2147483647}`))
	f.Add([]byte(`{"graph":{"name":"x","tasks":[{"id":0,"load":1}],"edges":[]},"topo":"hypercube:2","wb":1e308}`))
	f.Add([]byte(`{"graph":{"name":"x","tasks":[{"id":0,"load":1}],"edges":[]},"topo":"hypercube:2","solver":"quantum"}`))
	f.Add([]byte(`{"graph":{"name":"x","tasks":[{"id":0,"load":1}],"edges":[]},"topo":"hypercube:2",` +
		`"comm":{"bandwidth":-1}}`))
	f.Add([]byte(strings.Repeat(`{"graph":`, 100))) // nesting bomb, rejected by decode
	f.Add([]byte("\x00\x01\x02\xff"))

	svc, err := New(Config{CacheSize: 8, DefaultSolver: "hlf"})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(svc.Close)
	handler := svc.Handler()

	f.Fuzz(func(t *testing.T, data []byte) {
		solvesBefore := svc.Stats().Solves
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(data))
		req.Header.Set("Content-Type", "application/json")
		handler.ServeHTTP(rec, req)

		if rec.Code == http.StatusOK {
			// The fuzzer assembled a genuinely valid request; solving it
			// is correct behavior, and the body must be a decodable
			// result.
			var res Result
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatalf("200 with an undecodable body: %v", err)
			}
			return
		}
		// Every rejection is a structured JSON error with a message.
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Fatalf("status %d without a structured error body: %q", rec.Code, rec.Body.String())
		}
		// Bad input maps to a client error (400 decode/validation, 422
		// solver rejection, 504 a fuzzed timeout_ms expiring) — never an
		// internal 500.
		switch rec.Code {
		case http.StatusBadRequest, http.StatusUnprocessableEntity,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("hostile input produced status %d: %s", rec.Code, rec.Body.String())
		}
		// Malformed requests are rejected before the solver layer.
		if rec.Code == http.StatusBadRequest {
			if got := svc.Stats().Solves; got != solvesBefore {
				t.Fatalf("malformed request reached a solver (solves %d -> %d)", solvesBefore, got)
			}
		}
	})
}

// FuzzSimIndexLoad writes arbitrary bytes as a similarity-index sidecar
// file and loads it into rings of 1 to 3 slots. A hostile or corrupt
// file may be rejected, but must never panic; a file that loads must
// leave an index that answers Get and Lookup for every entry it named,
// saves, and reloads from its own snapshot with the same Len.
//
// Every execution does file I/O, so run it locally with
// -fuzzminimizetime 0, or input minimisation looks like a stall.
func FuzzSimIndexLoad(f *testing.F) {
	sk := func(seed int64) taskgraph.Sketch {
		g, err := taskgraph.Chain("c", 4, float64(seed), 10)
		if err != nil {
			f.Fatal(err)
		}
		return g.Sketch()
	}
	valid, err := json.Marshal(simIndexFile{Entries: []simEntry{
		{Key: "a", Topo: "ring-4", Spec: "ring:4", Sketch: sk(1), Graph: json.RawMessage(`{}`), NumTasks: 4},
		{Key: "b", Topo: "ring-4", Spec: "ring:4", Sketch: sk(2), Graph: json.RawMessage(`{}`), NumTasks: 4},
		{Key: "a", Topo: "ring-4", Sketch: sk(3)}, // duplicate address
		{Key: "", Topo: "ring-4"}, // no address
		{Key: "c", Topo: "hypercube-8", Sketch: sk(1)},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"entries":null}`))
	f.Add([]byte(`{"entries":[{}]}`))
	f.Add([]byte(`{"entries":[{"key":"k","sketch":[1,2,3]}]}`))
	f.Add([]byte(`{"entries":[{"key":"k","graph":"not an object","num_tasks":-1}]}`))
	f.Add([]byte("\x00\xff"))

	dir := f.TempDir()
	path := filepath.Join(dir, "simindex.json")
	resaved := filepath.Join(dir, "resaved.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var file simIndexFile
		named := json.Unmarshal(data, &file) == nil
		for size := 1; size <= 3; size++ {
			ix := NewSimIndex(size)
			if err := ix.Load(path); err != nil {
				continue
			}
			if n := ix.Len(); n > size {
				t.Fatalf("ring of %d holds %d entries", size, n)
			}
			if named {
				for _, e := range file.Entries {
					if got, ok := ix.Get(e.Key); ok && got.Key != e.Key {
						t.Fatalf("Get(%q) returned the entry for %q", e.Key, got.Key)
					}
					if got, _, ok := ix.Lookup(e.Sketch, "", e.Topo, 1); ok && got.Topo != e.Topo {
						t.Fatalf("Lookup on %q returned an entry on %q", e.Topo, got.Topo)
					}
				}
			}
			if err := ix.Save(resaved); err != nil {
				t.Fatalf("Save after a clean Load: %v", err)
			}
			re := NewSimIndex(size)
			if err := re.Load(resaved); err != nil {
				t.Fatalf("reloading its own snapshot: %v", err)
			}
			if re.Len() != ix.Len() {
				t.Fatalf("Save/Load round trip changed Len from %d to %d", ix.Len(), re.Len())
			}
		}
	})
}

// FuzzDeltaEditsMatchReference applies a random edit list to a random
// layered graph (dtgen's generator) both ways: editGraph on the
// canonicalizer, and referenceEdit's decode, edit and re-encode followed
// by a parse of the re-encoded bytes. The edit errors, the check errors,
// the canonical bytes, the fingerprint and the materialization error
// must all be equal. Each edit is four script bytes: the op (one in six
// is unknown), two task positions in [-1, n+1] — or, for every other
// add_task, the next dense ID, and for every other set_edge or del_edge
// on a graph with edges, an existing edge — and a value that is absent at 255, else a load or
// volume in [-8, 55.75] and a name.
func FuzzDeltaEditsMatchReference(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{1, 3, 0, 9, 1, 1, 0, 0, 1, 2, 0, 255})
	f.Add(int64(3), []byte{0, 0, 0, 40, 0, 0, 0, 3, 2, 0, 7, 40, 2, 9, 9, 12})
	f.Add(int64(4), []byte{3, 1, 0, 8, 4, 5, 0, 0, 4, 5, 0, 0, 3, 1, 2, 255, 5, 0, 0, 0})
	f.Add(int64(5), []byte{2, 1, 1, 40, 2, 4, 2, 255, 2, 3, 0, 0, 3, 0, 1, 31})
	ops := []string{"add_task", "set_load", "add_edge", "set_edge", "del_edge", "del_task"}
	names := []string{"", "x", "<b>&amp;</b>", "täsk 世界", "a\"b\\c\n", " "}
	var c, ref taskgraph.Canonicalizer
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		rng := rand.New(rand.NewSource(seed))
		g, err := taskgraph.Layered("layered", taskgraph.LayeredConfig{Layers: 1 + rng.Intn(4), MinWidth: 1,
			MaxWidth: 4, MinLoad: 1, MaxLoad: 20, MaxBits: 64, EdgeProb: 0.5}, rng)
		if err != nil {
			t.Fatal(err)
		}
		graph, err := g.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		n, ge := g.NumTasks(), g.Edges()
		var edits []DeltaEdit
		added := 0
		for ; len(script) >= 4; script = script[4:] {
			b := script[:4]
			e := DeltaEdit{Op: ops[int(b[0])%len(ops)], Task: int(b[1])%(n+3) - 1,
				From: int(b[1])%(n+3) - 1, To: int(b[2])%(n+3) - 1}
			switch {
			case e.Op == "add_task" && b[1]%2 == 0:
				e.Task = n + added
			case (e.Op == "set_edge" || e.Op == "del_edge") && b[2]%2 == 0 && len(ge) > 0:
				pick := ge[int(b[1])%len(ge)]
				e.From, e.To = int(pick.From), int(pick.To)
			}
			if e.Op == "add_task" {
				added++
			}
			if b[3] != 255 {
				v := (float64(b[3]) - 32) / 4
				e.Load, e.Bits, e.Name = &v, &v, names[int(b[3])%len(names)]
			}
			edits = append(edits, e)
		}

		edited, refErr := referenceEdit(graph, edits)
		err = editGraph(&c, graph, edits)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("edit error %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		err, refErr = c.Canonicalize(), ref.Parse(edited)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("check error %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		if got, want := c.AppendCanonicalJSON(nil), ref.AppendCanonicalJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("canonical bytes differ:\nedited    %s\nreference %s", got, want)
		}
		if c.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("fingerprint %x, reference %x", c.Fingerprint(), ref.Fingerprint())
		}
		_, err = c.Graph()
		_, refErr = ref.Graph()
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("graph error %v, reference %v", err, refErr)
		}
	})
}

// FuzzScheduleScanMatchesUnmarshal holds the warm path's schedule scan to
// encoding/json: wherever scanSchedule accepts a body, encoding/json
// must accept it too and give the same seed and the same verdict on
// whether the schedule has entries. The corpus starts from served result
// bodies, which the scanner must accept.
func FuzzScheduleScanMatchesUnmarshal(f *testing.F) {
	svc, err := New(Config{CacheSize: 16})
	if err != nil {
		f.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	for _, program := range []string{"NE", "GJ", "FFT", "MM"} {
		g, err := cliutil.BuildProgram(program)
		if err != nil {
			f.Fatal(err)
		}
		var body []byte
		for _, slv := range []string{"sa", "hlf"} {
			req, err := json.Marshal(ScheduleRequest{Graph: g, Topo: "hypercube:3", Solver: slv, Seed: 1991})
			if err != nil {
				f.Fatal(err)
			}
			code, resp := serve(h, req)
			if code != http.StatusOK {
				f.Fatalf("%s %s: %d %s", program, slv, code, resp)
			}
			if ok, entries := scanSchedule(resp, make([]int, g.NumTasks())); !ok || !entries {
				f.Fatalf("%s %s: the scanner declines a served result body", program, slv)
			}
			f.Add(resp, uint8(g.NumTasks()))
			body = resp
		}
		f.Add(body, uint8(7))
	}
	for _, body := range []string{
		`{"schedule":null}`, `{"schedule":[]}`, `{"schedule":[{"task":0,"proc":1}]}`,
		`{"schedule":[{"task":2,"proc":1},{"task":2,"proc":3,"start":0.5,"finish":1e3}]}`,
		`{"Schedule":[{"task":0,"proc":1}]}`, `{"schedule":[null]}`, `{"schedule":[{"task":-1,"proc":2}]}`,
		`{"schedule":[{"task":0,"proc":1}],"schedule":[]}`, `{"schedule":[{"task":0,"proc":1}]} x`,
		`{"solver":"a\"b","schedule":[{"task":0,"proc":1}]}`, `{"speedup":1,"extra":2,"schedule":[]}`,
	} {
		f.Add([]byte(body), uint8(4))
	}
	f.Fuzz(func(t *testing.T, body []byte, n uint8) {
		seed := make([]int, n)
		ok, entries := scanSchedule(body, seed)
		if !ok {
			return // declined: unmarshalSchedule reads the body
		}
		var base struct {
			Schedule []schedule.Entry `json:"schedule"`
		}
		if err := json.Unmarshal(body, &base); err != nil {
			t.Fatalf("the scanner accepted a body encoding/json rejects: %v", err)
		}
		want := make([]int, n)
		if wantEntries := unmarshalSchedule(body, want); entries != wantEntries {
			t.Fatalf("entries %v, encoding/json %v", entries, wantEntries)
		}
		if entries && !slices.Equal(seed, want) {
			t.Fatalf("seed %v, encoding/json %v", seed, want)
		}
	})
}
