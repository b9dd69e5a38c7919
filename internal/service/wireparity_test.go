package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/taskgraph"
)

// referenceDecode answers a /v1/schedule body the way the handler did
// before the one-pass wire scanner: encoding/json's Decoder fills the
// envelope and encoding/json parses the graph. It runs the same process
// pipeline and response writers, so its status and bytes are the oracle
// the handler's must equal.
func referenceDecode(s *Server, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	var req rawRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		writeError(rec, badRequest("decode request: %v", err))
		return rec.Code, rec.Body.Bytes()
	}
	// process's own first two steps, with the graph parsed by
	// encoding/json; process then re-checks the parsed graph, which is
	// idempotent.
	if len(req.Graph) == 0 || string(req.Graph) == "null" {
		writeError(rec, badRequest("missing graph"))
		return rec.Code, rec.Body.Bytes()
	}
	req.scanned = new(canonScratch)
	if err := req.scanned.c.ParseReference(req.Graph); err != nil {
		writeError(rec, badRequest("decode request: %v", err))
		return rec.Code, rec.Body.Bytes()
	}
	out, status, err := s.process(context.Background(), &req, engine.LaneInteractive, nil)
	if err != nil {
		writeError(rec, err)
		return rec.Code, rec.Body.Bytes()
	}
	writeResult(rec, out, status, &procMeta{})
	return rec.Code, rec.Body.Bytes()
}

// serve posts body to the handler in-process and returns status and
// response bytes.
func serve(h http.Handler, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// parityGraph is a small valid graph: three tasks, two edges, one
// duplicate (merged) edge.
const parityGraph = `{"name":"p","tasks":[{"id":1,"name":"b","load":2.5},{"id":0,"name":"a","load":1},{"id":2,"load":3}],` +
	`"edges":[{"from":0,"to":1,"bits":40},{"from":1,"to":2,"bits":8},{"from":0,"to":1,"bits":0.5}]}`

// parityBodies covers the edges of the accepted wire subset: everything
// the one-pass scanner must accept identically, and everything it must
// decline so encoding/json answers it.
func parityBodies() map[string]string {
	g := parityGraph
	env := func(graph, rest string) string {
		return `{"graph":` + graph + `,"topo":"ring:3","solver":"hlf"` + rest + `}`
	}
	valid := env(g, "")
	return map[string]string{
		"valid":                 valid,
		"int64 seeds":           env(g, `,"seed":9223372036854775807`),
		"min int64 seed":        env(g, `,"seed":-9223372036854775808`),
		"valid with options":    env(g, `,"seed":-7,"wb":0.25,"restarts":2,"timeout_ms":0,"lane":"batch","nocomm":false,"comm":{"bandwidth":2,"sigma":0.5,"tau":1,"scale":0.75}`),
		"whitespace":            " \n\t{ \"graph\" : " + g + " ,\r\n \"topo\" : \"ring:3\" , \"solver\" : \"hlf\" } ",
		"empty body":            ``,
		"truncated":             valid[:len(valid)/2],
		"bom":                   "\xef\xbb\xbf" + valid,
		"trailing garbage":      valid + `xyz`,
		"two values":            valid + valid,
		"case-variant topo":     `{"graph":` + g + `,"Topo":"ring:3","solver":"hlf"}`,
		"case-variant graph":    `{"GRAPH":` + g + `,"topo":"ring:3","solver":"hlf"}`,
		"case-variant in graph": env(`{"Tasks":[{"ID":0,"Load":1}],"edges":null}`, ""),
		"unknown field":         env(g, `,"colour":"red"`),
		"unknown graph field":   env(`{"tasks":[{"id":0,"load":1}],"extra":[1,{"a":null}]}`, ""),
		"duplicate key":         env(g, `,"topo":"ring:2"`),
		"duplicate graph":       env(g, `,"graph":{"tasks":[{"id":0,"load":1}]}`),
		"duplicate task field":  env(`{"tasks":[{"id":0,"load":1,"load":2}]}`, ""),
		"null topo":             `{"graph":` + g + `,"topo":null,"solver":"hlf"}`,
		"null scalars":          env(g, `,"seed":null,"wb":null,"restarts":null,"nocache":null,"comm":null`),
		"null task load":        env(`{"tasks":[{"id":0,"load":null}]}`, ""),
		"float in int field":    env(g, `,"restarts":1.0`),
		"exponent in int":       env(g, `,"seed":1e3`),
		"huge float":            env(g, `,"wb":1e400`),
		"huge int":              env(g, `,"seed":99999999999999999999`),
		"int past int64":        env(g, `,"seed":9223372036854775808`),
		"float task id":         env(`{"tasks":[{"id":0.0,"load":1}]}`, ""),
		"string for bool":       env(g, `,"nocache":"yes"`),
		"escaped name":          env(`{"name":"täsk\n","tasks":[{"id":0,"name":"\"q\"","load":1}]}`, ""),
		"non-ascii name":        env(`{"name":"täsk 世界","tasks":[{"id":0,"name":"<b>&</b>","load":1}]}`, ""),
		"invalid utf-8":         env("{\"name\":\"bad\xff\xc3\",\"tasks\":[{\"id\":0,\"load\":1}]}", ""),
		"control char":          env("{\"name\":\"a\tb\",\"tasks\":[{\"id\":0,\"load\":1}]}", ""),
		"graph array":           env(`[1,2]`, ""),
		"graph string":          env(`"g"`, ""),
		"graph null":            env(`null`, ""),
		"graph absent":          `{"topo":"ring:3","solver":"hlf"}`,
		"non-dense":             env(`{"tasks":[{"id":0,"load":1},{"id":2,"load":1}]}`, ""),
		"non-dense then syntax": `{"graph":{"tasks":[{"id":0,"load":1},{"id":2,"load":1}]},"topo":"ring:3",}`,
		"unknown edge task":     env(`{"tasks":[{"id":0,"load":1}],"edges":[{"from":0,"to":4,"bits":1}]}`, ""),
		"negative bits":         env(`{"tasks":[{"id":0,"load":1},{"id":1,"load":1}],"edges":[{"from":0,"to":1,"bits":-1}]}`, ""),
		"cycle":                 env(`{"tasks":[{"id":0,"load":1},{"id":1,"load":1}],"edges":[{"from":0,"to":1,"bits":1},{"from":1,"to":0,"bits":1}]}`, ""),
		"negative zero load":    env(`{"tasks":[{"id":0,"load":-0},{"id":1,"load":-0.0}]}`, ""),
		"bad lane":              env(g, `,"lane":"bulk"`),
		"top-level null":        `null`,
		"top-level array":       `[` + valid + `]`,
	}
}

// TestWireParity pins the handler's status code and exact response
// bytes to referenceDecode's for every body of the table.
func TestWireParity(t *testing.T) {
	svc, err := New(Config{CacheSize: 64, DefaultSolver: "hlf"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	for name, body := range parityBodies() {
		wantCode, want := referenceDecode(svc, []byte(body))
		gotCode, got := serve(h, []byte(body))
		if gotCode != wantCode || !bytes.Equal(got, want) {
			t.Errorf("%s: handler answered %d %s\nreference          %d %s", name, gotCode, got, wantCode, want)
		}
	}
}

// TestWireParityCoversBothOutcomes guards the table itself: it must hold
// accepted bodies and every kind of rejection the reference produces,
// or the parity check proves less than it claims.
func TestWireParityCoversBothOutcomes(t *testing.T) {
	svc, err := New(Config{CacheSize: 64, DefaultSolver: "hlf"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	msgs := map[string]bool{}
	ok := 0
	for _, body := range parityBodies() {
		code, resp := referenceDecode(svc, []byte(body))
		if code == http.StatusOK {
			ok++
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(resp, &er); err != nil {
			t.Fatalf("unstructured %d: %s", code, resp)
		}
		msgs[er.Error] = true
	}
	if ok < 10 {
		t.Errorf("only %d accepted bodies in the table", ok)
	}
	for _, frag := range []string{"invalid character", "cannot unmarshal", "not dense", "missing graph", "missing topo", "EOF", "cycle", "unknown task", "negative volume"} {
		found := false
		for m := range msgs {
			if strings.Contains(m, frag) {
				found = true
			}
		}
		if !found {
			t.Errorf("no rejection in the table mentions %q (have %v)", frag, msgs)
		}
	}
}

// FuzzScheduleDecodeMatchesReference holds scanRequest to encoding/json's
// Decoder on arbitrary bodies: wherever the scanner accepts, every
// envelope field must equal the Decoder's and the scanned graph must
// check and canonicalize exactly as ParseReference parses the graph's raw
// bytes; wherever the Decoder rejects, the scanner must decline.
func FuzzScheduleDecodeMatchesReference(f *testing.F) {
	for _, body := range parityBodies() {
		f.Add([]byte(body))
	}
	var scanned, ref taskgraph.Canonicalizer
	f.Fuzz(func(t *testing.T, body []byte) {
		var want rawRequest
		refErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		var got rawRequest
		if !scanRequest(body, &got, &scanned) {
			return // declined: the handler decodes with the Decoder
		}
		if refErr != nil {
			t.Fatalf("scanner accepted a body the Decoder rejects: %v", refErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fields differ:\nscanner %+v\nDecoder %+v", got, want)
		}
		if len(got.Graph) == 0 || string(got.Graph) == "null" {
			return // no graph scanned: process answers "missing graph"
		}
		err, refErr := scanned.Canonicalize(), ref.ParseReference(got.Graph)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("graph error %v, reference %v", err, refErr)
		}
		if err == nil && !bytes.Equal(scanned.AppendCanonicalJSON(nil), ref.AppendCanonicalJSON(nil)) {
			t.Fatalf("canonical graph bytes differ:\nscanner   %s\nreference %s", scanned.AppendCanonicalJSON(nil), ref.AppendCanonicalJSON(nil))
		}
	})
}

// TestWireSlowDecodesCounter pins what the slow-path counter counts: a
// body shaped like the benchmark's stays on the scanner, one with an
// escaped task name falls back to encoding/json, and /statsz and
// /metrics report the same count.
func TestWireSlowDecodesCounter(t *testing.T) {
	svc, ts := newTestServer(t, Config{CacheSize: 8, DefaultSolver: "hlf"})
	h := svc.Handler()
	g := mustGraph(t, "FFT")
	graphJSON, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	// The benchmark draws 63-bit seeds, so its bodies carry 19-digit
	// integers.
	benchShaped := []byte(`{"graph":` + string(graphJSON) + `,"topo":"hypercube:3","solver":"hlf","seed":8070450532247928832}`)
	for i := 0; i < 2; i++ {
		if code, resp := serve(h, benchShaped); code != http.StatusOK {
			t.Fatalf("benchmark-shaped body: %d %s", code, resp)
		}
	}
	if n := svc.Stats().WireSlowDecodes; n != 0 {
		t.Fatalf("benchmark-shaped bodies took the slow path %d times", n)
	}
	escaped := []byte(`{"graph":{"tasks":[{"id":0,"name":"t\u00e4sk","load":1}]},"topo":"ring:3","solver":"hlf"}`)
	if code, resp := serve(h, escaped); code != http.StatusOK {
		t.Fatalf("escaped name: %d %s", code, resp)
	}
	if n := svc.Stats().WireSlowDecodes; n != 1 {
		t.Fatalf("wire_slow_decodes = %d after one escaped name, want 1", n)
	}
	if st := getStats(t, ts.URL); st.WireSlowDecodes != 1 {
		t.Fatalf("/statsz wire_slow_decodes = %d, want 1", st.WireSlowDecodes)
	}
	if m := metricsBody(t, ts.URL); !strings.Contains(m, "\ndtserve_wire_slow_decodes_total 1\n") {
		t.Fatal("/metrics lacks dtserve_wire_slow_decodes_total 1")
	}
}

// TestOversizedBodyParity: a body over maxBodyBytes fails the read; the
// fallback decoder must see the same prefix and the same error, so the
// answer is the one encoding/json gives reading the capped body itself.
func TestOversizedBodyParity(t *testing.T) {
	svc, err := New(Config{CacheSize: 8, DefaultSolver: "hlf"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	big := append([]byte(`{"graph":{"name":"`), bytes.Repeat([]byte("x"), maxBodyBytes)...)
	big = append(big, `"}}`...)
	rec := httptest.NewRecorder()
	var req rawRequest
	wantErr := json.NewDecoder(http.MaxBytesReader(rec, io.NopCloser(bytes.NewReader(big)), maxBodyBytes)).Decode(&req)
	if wantErr == nil {
		t.Fatal("reference decode of an oversized body succeeded")
	}
	code, resp := serve(h, big)
	var er ErrorResponse
	if err := json.Unmarshal(resp, &er); err != nil || code != http.StatusBadRequest {
		t.Fatalf("oversized body: %d %s", code, resp)
	}
	if want := "decode request: " + wantErr.Error(); er.Error != want {
		t.Fatalf("oversized body error %q, want %q", er.Error, want)
	}
}

// TestScratchPoolDropsBigBodies pins the body-buffer cap: a scratch that
// read a body over maxPooledBody goes back to the pool without it, and a
// smaller buffer is kept for reuse.
func TestScratchPoolDropsBigBodies(t *testing.T) {
	big := &canonScratch{body: make([]byte, 0, maxPooledBody+1)}
	putScratch(big)
	if big.body != nil {
		t.Fatalf("a %d-byte body buffer was pooled", maxPooledBody+1)
	}
	small := &canonScratch{body: make([]byte, 0, maxPooledBody)}
	putScratch(small)
	if cap(small.body) != maxPooledBody {
		t.Fatal("a body buffer within the cap was dropped")
	}
}

// TestWarmHitAllocs pins the in-process warm hit's allocation budget:
// handler entry to cached body written, for the benchmark's FFT request.
// Every run sends the request with its own whitespace suffix, bytes no
// alias has seen, so each takes the full decode; TestAliasHitAllocs pins
// the repeat of identical bytes.
func TestWarmHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race randomly drops sync.Pool items, so pooled scratch is reallocated")
	}
	svc, err := New(Config{CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	payload := wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Solver = "hlf"; r.Restarts = 0 })
	if code, resp := serve(h, payload); code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", code, resp)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", nil)
	rd := bytes.NewReader(payload)
	buf := make([]byte, 0, len(payload)+4)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		buf = spaced(buf, payload, i, 4)
		i++
		rd.Reset(buf)
		req.Body = io.NopCloser(rd)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-DTServe-Cache") != "hit" {
			t.Fatalf("status %d, cache %q", rec.Code, rec.Header().Get("X-DTServe-Cache"))
		}
	})
	if n := svc.Stats().AliasHits; n != 0 {
		t.Fatalf("%d runs were alias hits, want every one decoded", n)
	}
	if allocs > 50 {
		t.Errorf("warm hit allocates %.0f times, want <= 50", allocs)
	}
	t.Logf("warm hit: %.0f allocs", allocs)
}
