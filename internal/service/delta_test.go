package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/engine"
)

// referenceDelta answers a /v1/schedule/delta body the way the handler
// did while it edited a decoded document: encoding/json decodes the
// indexed graph, the edits mutate the document, json.Marshal writes it
// back, and process parses those bytes again. Everything after the edits
// is the handler's own pipeline, so its status, headers and bytes are
// the oracle the handler's must equal.
func referenceDelta(s *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	var dreq DeltaRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&dreq); err != nil {
		writeError(rec, badRequest("decode delta request: %v", err))
		return rec
	}
	if dreq.Base == "" {
		writeError(rec, badRequest("missing base address"))
		return rec
	}
	ent, ok := s.sim.Get(dreq.Base)
	if !ok {
		writeError(rec, &httpError{status: http.StatusNotFound,
			msg: "service: unknown base address (not indexed, or evicted)"})
		return rec
	}
	edited, err := referenceEdit(ent.Graph, dreq.Edits)
	if err != nil {
		writeError(rec, err)
		return rec
	}
	opt := ent.Opt
	wb := opt.Wb
	timeoutMS := opt.Timeout
	if dreq.TimeoutMS != 0 {
		timeoutMS = dreq.TimeoutMS
	}
	raw := rawRequest{
		Graph: edited,
		Topo:  ent.Spec,
		Comm: &CommOverride{
			Bandwidth: &opt.Comm.Bandwidth,
			Sigma:     &opt.Comm.Sigma,
			Tau:       &opt.Comm.Tau,
			Scale:     &opt.Comm.Scale,
		},
		Solver:          opt.Solver,
		Seed:            opt.Seed,
		Wb:              &wb,
		Restarts:        opt.Restarts,
		Cooperative:     opt.Cooperative,
		TimeoutMS:       timeoutMS,
		MemberTimeoutMS: opt.MemberTimeout,
		Lane:            dreq.Lane,
		NoCache:         dreq.NoCache,
	}
	meta := &procMeta{warmBase: dreq.Base, noWarm: dreq.NoWarm}
	if dreq.NoWarm {
		meta.warmBase = ""
	}
	out, status, err := s.process(context.Background(), &raw, engine.LaneInteractive, meta)
	if err != nil {
		writeError(rec, err)
		return rec
	}
	s.account(status)
	writeResult(rec, out, status, meta)
	return rec
}

// referenceEdit is the decoded-document round trip: the edited graph's
// bytes, or the 500 or 400 the handler answered for them.
func referenceEdit(graph []byte, edits []DeltaEdit) ([]byte, error) {
	var doc deltaGraph
	if err := json.Unmarshal(graph, &doc); err != nil {
		return nil, &httpError{status: http.StatusInternalServerError,
			msg: "service: corrupt indexed graph: " + err.Error()}
	}
	for i, e := range edits {
		if err := doc.apply(e); err != nil {
			return nil, badRequest("edit %d: %v", i, err)
		}
	}
	edited, err := json.Marshal(doc)
	if err != nil {
		return nil, &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	return edited, nil
}

// deltaGraph is the graph document referenceEdit decodes, edits and
// re-encodes: the canonical graph JSON's fields, in encoding/json's hands.
type deltaGraph struct {
	Name  string      `json:"name"`
	Tasks []deltaTask `json:"tasks"`
	Edges []deltaEdge `json:"edges"`
}

type deltaTask struct {
	ID   int     `json:"id"`
	Name string  `json:"name,omitempty"`
	Load float64 `json:"load"`
}

type deltaEdge struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Bits float64 `json:"bits"`
}

// apply mutates the graph document by one edit.
func (g *deltaGraph) apply(e DeltaEdit) error {
	switch e.Op {
	case "add_task":
		if e.Task != len(g.Tasks) {
			return badRequest("add_task: task id %d must be the next dense id %d", e.Task, len(g.Tasks))
		}
		load := 0.0
		if e.Load != nil {
			load = *e.Load
		}
		g.Tasks = append(g.Tasks, deltaTask{ID: e.Task, Name: e.Name, Load: load})
		return nil
	case "set_load":
		if e.Task < 0 || e.Task >= len(g.Tasks) {
			return badRequest("set_load: no task %d", e.Task)
		}
		if e.Load == nil {
			return badRequest("set_load: missing load")
		}
		g.Tasks[e.Task].Load = *e.Load
		return nil
	case "add_edge":
		if e.Bits == nil {
			return badRequest("add_edge: missing bits")
		}
		if err := g.checkEndpoints(e.From, e.To); err != nil {
			return err
		}
		g.Edges = append(g.Edges, deltaEdge{From: e.From, To: e.To, Bits: *e.Bits})
		return nil
	case "set_edge":
		if e.Bits == nil {
			return badRequest("set_edge: missing bits")
		}
		for i := range g.Edges {
			if g.Edges[i].From == e.From && g.Edges[i].To == e.To {
				g.Edges[i].Bits = *e.Bits
				return nil
			}
		}
		return badRequest("set_edge: no edge %d->%d", e.From, e.To)
	case "del_edge":
		for i := range g.Edges {
			if g.Edges[i].From == e.From && g.Edges[i].To == e.To {
				g.Edges = append(g.Edges[:i], g.Edges[i+1:]...)
				return nil
			}
		}
		return badRequest("del_edge: no edge %d->%d", e.From, e.To)
	default:
		return badRequest("unknown edit op %q (want add_task, set_load, add_edge, set_edge or del_edge)", e.Op)
	}
}

func (g *deltaGraph) checkEndpoints(from, to int) error {
	if from < 0 || from >= len(g.Tasks) || to < 0 || to >= len(g.Tasks) {
		return badRequest("edge %d->%d references a missing task", from, to)
	}
	return nil
}

// serveDelta posts body to the delta handler in-process.
func serveDelta(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule/delta", bytes.NewReader(body)))
	return rec
}

// deltaAnswer is what a delta client sees: status, the three result
// headers and the body.
func deltaAnswer(rec *httptest.ResponseRecorder) string {
	h := rec.Header()
	return fmt.Sprintf("%d cache=%q address=%q warm=%q\n%s", rec.Code,
		h.Get("X-DTServe-Cache"), h.Get("X-DTServe-Address"), h.Get("X-DTServe-Warm"), rec.Body.Bytes())
}

// deltaParityServer starts a server holding an FFT base solve plus
// hand-made sim-index entries: the base's graph with an escaped name
// (outside the scanner's subset), a graph whose tasks and duplicate
// edges are out of canonical order, three documents that are not graphs
// and a null one. The base body is cached under the first two, so they
// seed.
func deltaParityServer(t *testing.T) (*Server, string, simEntry) {
	t.Helper()
	svc, err := New(Config{CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule",
		bytes.NewReader(wireRequest(t, "FFT", nil))))
	if rec.Code != http.StatusOK {
		t.Fatalf("base solve: %d %s", rec.Code, rec.Body.Bytes())
	}
	addr := rec.Header().Get("X-DTServe-Address")
	ent, ok := svc.sim.Get(addr)
	if !ok {
		t.Fatal("the base solve is not indexed")
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(ent.Graph, &doc); err != nil {
		t.Fatal(err)
	}
	doc["name"] = json.RawMessage(`"täsk \"q\" <fft>"`)
	escaped, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	for key, graph := range map[string]string{
		"escaped":   string(escaped),
		"unsorted":  `{"name":"u","tasks":[{"id":1,"name":"b","load":2},{"id":0,"load":1},{"id":2,"load":3}],"edges":[{"from":0,"to":1,"bits":4},{"from":1,"to":2,"bits":1},{"from":0,"to":1,"bits":2}]}`,
		"array":     `[1,2]`,
		"garbage":   `{"tasks":[{"id":0,`,
		"badtype":   `{"tasks":"many"}`,
		"nullgraph": `null`,
	} {
		e := ent
		e.Key, e.Graph = key, json.RawMessage(graph)
		svc.sim.Add(e)
		if key == "escaped" || key == "unsorted" {
			body, _ := svc.cache.Get(addr)
			svc.cache.Put(key, body)
		}
	}
	return svc, addr, ent
}

// deltaParityRows lists delta bodies, in order, against base (an FFT
// solve with n tasks whose first canonical edge is from->to): every op,
// every 400 the edits can raise, the 404, the hand-made index entries
// and nowarm. Each row is named.
func deltaParityRows(base string, n, from, to int) [][2]string {
	d := func(base, edits, extra string) string {
		return `{"base":"` + base + `","edits":[` + edits + `]` + extra + `}`
	}
	f := fmt.Sprintf
	edge := f(`"from":%d,"to":%d`, from, to)
	return [][2]string{
		{"set_load", d(base, `{"op":"set_load","task":3,"load":9.5}`, "")},
		{"set_load nowarm", d(base, `{"op":"set_load","task":3,"load":9.5}`, `,"nowarm":true`)},
		{"set_load nowarm fresh", d(base, `{"op":"set_load","task":4,"load":0.25}`, `,"nowarm":true`)},
		{"negative load clamped", d(base, `{"op":"set_load","task":2,"load":-4}`, "")},
		{"negative zero load", d(base, `{"op":"set_load","task":2,"load":-0}`, "")},
		{"add_task", d(base, f(`{"op":"add_task","task":%d,"name":"extra","load":2},{"op":"add_edge","from":0,"to":%[1]d,"bits":8}`, n), "")},
		{"add_task bare", d(base, f(`{"op":"add_task","task":%d}`, n), "")},
		{"add_task html name", d(base, f(`{"op":"add_task","task":%d,"name":"<b>&amp;</b>","load":1}`, n), "")},
		{"add_task non-ascii name", d(base, f(`{"op":"add_task","task":%d,"name":"täsk 世界","load":1}`, n), "")},
		{"add_task escaped name", d(base, f(`{"op":"add_task","task":%d,"name":"a\"b\\c\n é","load":1}`, n), "")},
		{"add_task twice", d(base, f(`{"op":"add_task","task":%d,"load":1},{"op":"add_task","task":%d,"name":"y","load":2},{"op":"add_edge","from":%[1]d,"to":%[2]d,"bits":3}`, n, n+1), "")},
		{"add_edge duplicate merges", d(base, `{"op":"add_edge",`+edge+`,"bits":0.5}`, "")},
		{"set_edge", d(base, `{"op":"set_edge",`+edge+`,"bits":3}`, "")},
		{"set_edge zero", d(base, `{"op":"set_edge",`+edge+`,"bits":0}`, "")},
		{"del_edge", d(base, `{"op":"del_edge",`+edge+`}`, "")},
		{"del_edge then add_edge", d(base, `{"op":"del_edge",`+edge+`},{"op":"add_edge",`+edge+`,"bits":7}`, "")},
		{"no edits", d(base, "", "")},
		{"edits absent", `{"base":"` + base + `"}`},
		{"timeout override", d(base, `{"op":"set_load","task":5,"load":2}`, `,"timeout_ms":60000`)},
		{"batch lane", d(base, `{"op":"set_load","task":6,"load":2}`, `,"lane":"batch"`)},
		{"nocache", d(base, `{"op":"set_load","task":7,"load":2}`, `,"nocache":true`)},
		{"unknown envelope field", d(base, `{"op":"set_load","task":8,"load":2}`, `,"colour":"red"`)},
		{"unknown op", d(base, `{"op":"del_task","task":0}`, "")},
		{"empty op", d(base, `{"task":0}`, "")},
		{"set_load missing load", d(base, `{"op":"set_load","task":0}`, "")},
		{"set_load out of range", d(base, f(`{"op":"set_load","task":%d,"load":1}`, n), "")},
		{"set_load negative task", d(base, `{"op":"set_load","task":-1,"load":1}`, "")},
		{"set_load out of range no load", d(base, f(`{"op":"set_load","task":%d}`, n), "")},
		{"add_task non-dense", d(base, f(`{"op":"add_task","task":%d,"load":1}`, n+1), "")},
		{"add_task negative", d(base, `{"op":"add_task","task":-1,"load":1}`, "")},
		{"set_edge missing bits", d(base, `{"op":"set_edge",`+edge+`}`, "")},
		{"set_edge missing edge", d(base, f(`{"op":"set_edge","from":%d,"to":0,"bits":1}`, n-1), "")},
		{"del_edge missing edge", d(base, f(`{"op":"del_edge","from":%d,"to":0}`, n-1), "")},
		{"add_edge missing bits", d(base, `{"op":"add_edge",`+edge+`}`, "")},
		{"add_edge from out of range", d(base, `{"op":"add_edge","from":-1,"to":1,"bits":1}`, "")},
		{"add_edge to out of range", d(base, f(`{"op":"add_edge","from":0,"to":%d,"bits":1}`, n), "")},
		{"edit numbering", d(base, f(`{"op":"set_load","task":1,"load":2},{"op":"add_task","task":%d},{"op":"set_load","task":%d}`, n, n), "")},
		{"self-loop", d(base, `{"op":"add_edge","from":3,"to":3,"bits":1}`, "")},
		{"cycle", d(base, f(`{"op":"add_edge","from":%d,"to":%d,"bits":1}`, to, from), "")},
		{"negative bits", d(base, `{"op":"add_edge","from":0,"to":1,"bits":-1}`, "")},
		{"set_edge negative bits", d(base, `{"op":"set_edge",`+edge+`,"bits":-2}`, "")},
		{"bad lane", d(base, `{"op":"set_load","task":9,"load":2}`, `,"lane":"bulk"`)},
		{"missing base", `{"edits":[{"op":"set_load","task":0,"load":1}]}`},
		{"bad envelope", `{"base":`},
		{"edits not a list", `{"base":"` + base + `","edits":{}}`},
		{"load as string", d(base, `{"op":"set_load","task":0,"load":"1"}`, "")},
		{"unknown base", d("no-such-address", `{"op":"set_load","task":0,"load":1}`, "")},
		{"escaped indexed name", d("escaped", `{"op":"set_load","task":3,"load":4}`, "")},
		{"escaped indexed name add_task", d("escaped", f(`{"op":"add_task","task":%d,"name":"z","load":4}`, n), "")},
		{"escaped indexed name nowarm", d("escaped", `{"op":"set_load","task":3,"load":4}`, `,"nowarm":true`)},
		{"unsorted indexed graph", d("unsorted", `{"op":"set_load","task":0,"load":5},{"op":"set_edge","from":0,"to":1,"bits":6}`, "")},
		{"unsorted indexed graph del_edge", d("unsorted", `{"op":"del_edge","from":0,"to":1},{"op":"add_task","task":3,"name":"w","load":1}`, "")},
		{"indexed array", d("array", `{"op":"set_load","task":0,"load":1}`, "")},
		{"indexed garbage", d("garbage", "", "")},
		{"indexed wrong type", d("badtype", "", "")},
		{"indexed null", d("nullgraph", "", "")},
		{"indexed null add_task", d("nullgraph", `{"op":"add_task","task":0,"load":1}`, "")},
	}
}

// decoderType maps the reference's decode-error type names to the
// handler's. It is the table's one intended difference: encoding/json
// names the type it failed to decode into, which is taskgraph's
// document type for the handler and deltaGraph for the reference, so a
// 500 for an undecodable indexed graph names a different type.
var decoderType = strings.NewReplacer(
	"service.deltaGraph", "taskgraph.jsonGraph", "service.deltaTask", "taskgraph.jsonTask",
	"service.deltaEdge", "taskgraph.jsonEdge", "deltaGraph.", "jsonGraph.")

// TestDeltaWireParity pins the delta handler's status, result headers
// and body bytes to referenceDelta's, row by row. Each side runs on its
// own server holding the same index, so both solve every row.
func TestDeltaWireParity(t *testing.T) {
	svc, base, ent := deltaParityServer(t)
	ref, refBase, _ := deltaParityServer(t)
	if base != refBase {
		t.Fatalf("the two servers address the base differently: %s, %s", base, refBase)
	}
	var doc struct {
		Tasks []json.RawMessage `json:"tasks"`
		Edges []struct{ From, To int }
	}
	if err := json.Unmarshal(ent.Graph, &doc); err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	codes := map[int]int{}
	for _, row := range deltaParityRows(base, len(doc.Tasks), doc.Edges[0].From, doc.Edges[0].To) {
		name, body := row[0], []byte(row[1])
		wrec := referenceDelta(ref, body)
		want := deltaAnswer(wrec)
		if wrec.Code == http.StatusInternalServerError {
			want = decoderType.Replace(want)
		}
		got := serveDelta(h, body)
		codes[got.Code]++
		if g := deltaAnswer(got); g != want {
			t.Errorf("%s: handler answered\n%s\nreference\n%s", name, g, want)
		}
	}
	for _, code := range []int{http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusInternalServerError} {
		if codes[code] == 0 {
			t.Errorf("no row of the table answers %d (have %v)", code, codes)
		}
	}
}

// TestDeltaGoldenChain pins the SHA-256 of every answer of a warm delta
// chain — body, X-DTServe-Address and X-DTServe-Warm — on NE, GJ, FFT
// and MM: a base solve, then six edits alternating set_load and add_edge,
// each naming the previous answer as its base. Added edges run forward
// in the base graph's topological order, so every edit stays acyclic.
func TestDeltaGoldenChain(t *testing.T) {
	want := map[string][]string{
		"NE": {
			"0478753b2272972c0d7555fd9501f359bc2f6291d9bba0bdf0efaefe72366026",
			"db4e9c77e0d2a93c9b92eee8641ac1cb91ea6667cd2842e41bbb19cb3e5f021b",
			"c054d4d22a66098495e00d9bf5c72a5348abd312ad4cb306956b19b43802b03d",
			"1e92a22a73c72109dc73a077e8deed30b9dd8bae9ac2a5dc3101af20c7da1cd9",
			"bfdef95aa55060783b10dea00890eab6dc491717090be360c972b22c9cdd3692",
			"f050bc8a64d2bf50a8450ca7f0c404852d47838534dc615114b922f057913c51",
			"cc6d536b7ba33c7bc28282ec4ac487aa67572fcdbd4294e52c46ca3f5c5c7e46",
		},
		"GJ": {
			"08393f6e1a3d0d356883eea99390997b2c9e80c956494b8b0860ac1bf76e61b5",
			"1547959874af88de99dfc8b7d39f09a1d22c56910e82de0bc0fe16d54fdc388c",
			"87117e34d49d96300359464c72b9e016794779c344c88bf74123a8c2941e4a93",
			"e88debc9b6a669ad3132ed339b620af3d00978df83d60f663aeed97bb98e8359",
			"0274f4d06d1c3700370b587e010dcbb75137082ca590cd52ad813f600a14f292",
			"dbd0eb0b106bdec7c0f80175e5a2ad12db15740fd834b0aedb54c0c4c4dffc35",
			"adc30c2ece03f506ab404b67f1f549aff966ac7f3defedd73911c8832cc80715",
		},
		"FFT": {
			"edb5b868480aeb326d6f9993612aea7a3e359f1270df4620c56fd4f15315ef21",
			"fd011a7d018cf8772e49b878f48469fcc315bbbdccb95e0bb62de57abcfe9700",
			"4bf4a6f5b1ed48fbec1c81cf81e750ff44d958eeb0dbadd2c28125bacbf36f96",
			"b3fe96db72f3404041206760c02689d720103080530af4a98920a1a236902bb7",
			"998821ae41db6a942166849533cb8778291c554daa31b6fab7287e4f3686a7a0",
			"483a7292bb12f47c60421647c7d45a866b3b8b85cd69c45ded2ef4cae9297cb0",
			"37efa0cf453552797157eb41a86656393c53be331524c3636acd7c9e13a30be6",
		},
		"MM": {
			"a383c4c5cf18188a44bda6d920206fdfaf0baddabc38ba68e03c32c016af2689",
			"fff40b596111e08780d21a77d5d9d26e79622781229151c157742c90233a134d",
			"b6daa48c3379c942964e02245650992887526fa53c8f69b162345a1ddbbc5543",
			"532fb931be17c1c1db3aa24f58d98eabb55638880ffd2a06c5061a721b39a6dd",
			"e43fa97f457207a98dcaf5cc6071564e62cb7105d95aa7fae48911a402992abc",
			"b8e2916c142729acba948e21467e3fa3317c17b2896e3d0f6709af6591e181cf",
			"e0cffb29c39d8f68508ebb1b5d361b05523a5f3d980d96d2c045b26e5b28848c",
		},
	}
	_, ts := newTestServer(t, Config{CacheSize: 256})
	got := map[string][]string{}
	for i, program := range []string{"NE", "GJ", "FFT", "MM"} {
		g, err := cliutil.BuildProgram(program)
		if err != nil {
			t.Fatal(err)
		}
		order, err := g.TopologicalOrder()
		if err != nil {
			t.Fatal(err)
		}
		n := len(order)
		body, err := json.Marshal(ScheduleRequest{Graph: g, Topo: "hypercube:3", Seed: int64(1991 + i)})
		if err != nil {
			t.Fatal(err)
		}
		resp, rbody := post(t, ts.URL+"/v1/schedule", body)
		for k := 0; ; k++ {
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s step %d: status %d: %s", program, k, resp.StatusCode, rbody)
			}
			addr, warm := resp.Header.Get("X-DTServe-Address"), resp.Header.Get("X-DTServe-Warm")
			if (warm != "") != (k > 0) {
				t.Fatalf("%s step %d: X-DTServe-Warm %q", program, k, warm)
			}
			sum := sha256.Sum256([]byte(string(rbody) + "\n" + addr + "\n" + warm))
			got[program] = append(got[program], hex.EncodeToString(sum[:]))
			if k == 6 {
				break
			}
			edit := DeltaEdit{Op: "set_load", Task: (7 * (k + 1)) % n}
			load, bits := 1.5+float64(k), 16*float64(k+1)
			edit.Load = &load
			if k%2 == 1 {
				edit = DeltaEdit{Op: "add_edge", From: int(order[k]), To: int(order[n-1-k]), Bits: &bits}
			}
			resp, rbody = postDelta(t, ts.URL, DeltaRequest{Base: addr, Edits: []DeltaEdit{edit}})
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		var b strings.Builder
		for _, program := range []string{"NE", "GJ", "FFT", "MM"} {
			fmt.Fprintf(&b, "\t\t%q: {\n", program)
			for _, s := range got[program] {
				fmt.Fprintf(&b, "\t\t\t%q,\n", s)
			}
			b.WriteString("\t\t},\n")
		}
		t.Fatalf("delta chain digests differ; got\n%s", b.String())
	}
}

// TestDeltaAllocs pins the allocation budget of one in-process warm
// delta replayed from its warm key: the envelope decoded, the base graph
// read and edited, canonicalized and keyed, the base schedule read and
// projected into a seed, the warm key derived and the cached body
// written. Only the solve itself is left out, so the budget prices the
// request path around it. It measures 66 allocations on Go 1.24; the
// bound leaves 9 of margin.
func TestDeltaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race randomly drops sync.Pool items, so pooled scratch is reallocated")
	}
	svc, err := New(Config{CacheSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(wireRequest(t, "FFT", nil))))
	if rec.Code != http.StatusOK {
		t.Fatalf("base solve: %d %s", rec.Code, rec.Body.Bytes())
	}
	load := 5.0
	payload, err := json.Marshal(DeltaRequest{Base: rec.Header().Get("X-DTServe-Address"),
		Edits: []DeltaEdit{{Op: "set_load", Task: 0, Load: &load}}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := serveDelta(h, payload); rec.Code != http.StatusOK || rec.Header().Get("X-DTServe-Warm") == "" {
		t.Fatalf("warm-up delta: %d %s", rec.Code, rec.Body.Bytes())
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule/delta", nil)
	rd := bytes.NewReader(payload)
	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(payload)
		req.Body = io.NopCloser(rd)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-DTServe-Cache") != "hit" || rec.Header().Get("X-DTServe-Warm") == "" {
			t.Fatalf("status %d, cache %q, warm %q", rec.Code, rec.Header().Get("X-DTServe-Cache"), rec.Header().Get("X-DTServe-Warm"))
		}
	})
	if allocs > 75 {
		t.Errorf("warm delta replay allocates %.0f times, want <= 75", allocs)
	}
	t.Logf("warm delta replay: %.0f allocs", allocs)
}

// TestDeltaHostileTaskCount: a sim-index entry whose num_tasks is
// negative or far larger than any graph (as a hostile index file can
// hold) still seeds a delta: the seed is sized by the edited graph, so
// neither count reaches make.
func TestDeltaHostileTaskCount(t *testing.T) {
	svc, base, ent := deltaParityServer(t)
	h := svc.Handler()
	body, _ := svc.cache.Get(base)
	for _, n := range []int{-1, 1 << 40} {
		e := ent
		e.Key, e.NumTasks = fmt.Sprintf("tasks%d", n), n
		svc.sim.Add(e)
		svc.cache.Put(e.Key, body)
		rec := serveDelta(h, []byte(`{"base":"`+e.Key+`","edits":[{"op":"set_load","task":1,"load":3}]}`))
		if rec.Code != http.StatusOK || rec.Header().Get("X-DTServe-Warm") == "" {
			t.Errorf("num_tasks %d: %d warm=%q %s", n, rec.Code, rec.Header().Get("X-DTServe-Warm"), rec.Body.Bytes())
		}
	}
}
