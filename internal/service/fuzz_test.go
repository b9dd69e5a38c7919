package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
