package taskgraph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// canonicalDocs are wire documents spanning the canonicalization space:
// permuted IDs, duplicate edges, hostile strings, extreme floats, empty
// and null collections.
func canonicalDocs() map[string]string {
	return map[string]string{
		"empty object":   `{}`,
		"null lists":     `{"name":"n","tasks":null,"edges":null}`,
		"single task":    `{"tasks":[{"id":0,"load":5}]}`,
		"already sorted": `{"name":"g","tasks":[{"id":0,"name":"a","load":1},{"id":1,"load":2}],"edges":[{"from":0,"to":1,"bits":40}]}`,
		"permuted tasks": `{"name":"g","tasks":[{"id":2,"load":3},{"id":0,"load":1},{"id":1,"name":"mid","load":2}],"edges":[{"from":1,"to":2,"bits":8},{"from":0,"to":1,"bits":4}]}`,
		"permuted edges": `{"tasks":[{"id":0,"load":1},{"id":1,"load":1},{"id":2,"load":1},{"id":3,"load":1}],"edges":[{"from":2,"to":3,"bits":1},{"from":0,"to":3,"bits":2},{"from":0,"to":1,"bits":3},{"from":1,"to":3,"bits":4}]}`,
		"duplicate edges": `{"tasks":[{"id":0,"load":1},{"id":1,"load":1}],` +
			`"edges":[{"from":0,"to":1,"bits":0.1},{"from":0,"to":1,"bits":0.2},{"from":0,"to":1,"bits":0.3}]}`,
		"hostile names": `{"name":"<b>&\"quote\"\\ \u2028\u2029 </b>","tasks":[{"id":0,"name":"t\u00e4sk\n\t\u96f6","load":1}],"edges":null}`,
		"tiny floats":   `{"tasks":[{"id":0,"load":1e-7},{"id":1,"load":9.9e-7},{"id":2,"load":1e-6}],"edges":[{"from":0,"to":1,"bits":2.5e-8}]}`,
		"huge floats":   `{"tasks":[{"id":0,"load":1e21},{"id":1,"load":9.999e20},{"id":2,"load":1.7976931348623157e308}],"edges":[{"from":0,"to":2,"bits":5e21}]}`,
		"negative zero": `{"tasks":[{"id":0,"load":-0}],"edges":null}`,
		"clamped loads": `{"tasks":[{"id":0,"load":-3.5},{"id":1,"load":2}],"edges":[{"from":0,"to":1,"bits":0}]}`,
		"fractions":     `{"tasks":[{"id":0,"load":0.30000000000000004},{"id":1,"load":123456.789}],"edges":[{"from":0,"to":1,"bits":0.1}]}`,
	}
}

// TestCanonicalizerGoldenEquivalence pins the tentpole contract: for any
// accepted document, the streamed canonical bytes equal
// Graph.CanonicalJSON, the fingerprint equals Graph.Fingerprint, and the
// materialized graph is structurally identical (including adjacency
// order) to the UnmarshalJSON graph.
func TestCanonicalizerGoldenEquivalence(t *testing.T) {
	var c Canonicalizer
	for name, doc := range canonicalDocs() {
		var g Graph
		if err := json.Unmarshal([]byte(doc), &g); err != nil {
			t.Fatalf("%s: reference decode: %v", name, err)
		}
		want, err := g.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: CanonicalJSON: %v", name, err)
		}
		if err := c.Parse([]byte(doc)); err != nil {
			t.Fatalf("%s: Parse: %v", name, err)
		}
		got := c.AppendCanonicalJSON(nil)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: canonical bytes differ:\nstreamed %s\nwant     %s", name, got, want)
		}
		if c.Fingerprint() != g.Fingerprint() {
			t.Errorf("%s: fingerprint %#x != graph %#x", name, c.Fingerprint(), g.Fingerprint())
		}
		mat, err := c.Graph()
		if err != nil {
			t.Fatalf("%s: Graph(): %v", name, err)
		}
		if !reflect.DeepEqual(mat, &g) {
			t.Errorf("%s: materialized graph differs from UnmarshalJSON graph", name)
		}
	}
}

// TestCanonicalizerErrorParity pins that every rejection surfaces the
// exact message Graph.UnmarshalJSON produces, with the acyclicity check
// deferred to Graph().
func TestCanonicalizerErrorParity(t *testing.T) {
	docs := map[string]string{
		"type error":    `{"tasks":"nope"}`,
		"non-dense":     `{"tasks":[{"id":0,"load":1},{"id":2,"load":1}],"edges":null}`,
		"duplicate ids": `{"tasks":[{"id":0,"load":1},{"id":0,"load":1}],"edges":null}`,
		"unknown task":  `{"tasks":[{"id":0,"load":1}],"edges":[{"from":0,"to":3,"bits":1}]}`,
		"negative from": `{"tasks":[{"id":0,"load":1}],"edges":[{"from":-1,"to":0,"bits":1}]}`,
		"self loop":     `{"tasks":[{"id":0,"load":1}],"edges":[{"from":0,"to":0,"bits":1}]}`,
		"negative bits": `{"tasks":[{"id":0,"load":1},{"id":1,"load":1}],"edges":[{"from":0,"to":1,"bits":-4}]}`,
		"cycle":         `{"tasks":[{"id":0,"load":1},{"id":1,"load":1}],"edges":[{"from":0,"to":1,"bits":1},{"from":1,"to":0,"bits":1}]}`,
	}
	var c Canonicalizer
	for name, doc := range docs {
		var g Graph
		refErr := json.Unmarshal([]byte(doc), &g)
		if refErr == nil {
			t.Fatalf("%s: reference decode unexpectedly succeeded", name)
		}
		err := c.Parse([]byte(doc))
		if err == nil {
			_, err = c.Graph()
		}
		if err == nil {
			t.Fatalf("%s: canonicalizer accepted a document UnmarshalJSON rejects (%v)", name, refErr)
		}
		if err.Error() != refErr.Error() {
			t.Errorf("%s: error mismatch:\ncanonicalizer %q\nunmarshal     %q", name, err, refErr)
		}
	}
}

// TestCanonicalizerReuse proves a pooled Canonicalizer carries no state
// between documents: parsing A then B gives B's exact canonical form,
// including when B is smaller than A.
func TestCanonicalizerReuse(t *testing.T) {
	docs := canonicalDocs()
	var c Canonicalizer
	big := docs["permuted edges"]
	for name, doc := range docs {
		if err := c.Parse([]byte(big)); err != nil {
			t.Fatal(err)
		}
		if err := c.Parse([]byte(doc)); err != nil {
			t.Fatalf("%s after big doc: %v", name, err)
		}
		var fresh Canonicalizer
		if err := fresh.Parse([]byte(doc)); err != nil {
			t.Fatal(err)
		}
		got := c.AppendCanonicalJSON(nil)
		want := fresh.AppendCanonicalJSON(nil)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: reused canonicalizer differs:\nreused %s\nfresh  %s", name, got, want)
		}
		if c.Fingerprint() != fresh.Fingerprint() {
			t.Errorf("%s: reused fingerprint differs", name)
		}
	}
}

// TestAppendJSONStringMatchesStdlib pins the hand-rolled string encoder
// byte-for-byte against encoding/json, hostile inputs included.
func TestAppendJSONStringMatchesStdlib(t *testing.T) {
	inputs := []string{
		"", "plain", "with space",
		`quote" back\ slash`,
		"\n\r\t", "\x00\x01\x1f\x7f",
		"<script>alert(1)&amp;</script>",
		"\u2028\u2029 separators",
		"héllo 世界 🚀",
		string([]byte{0xff, 0xfe}),
		"mixed\xffinvalid\xc3",
		"trailing\xc3",
	}
	for _, s := range inputs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONString(nil, []byte(s))
		if !bytes.Equal(got, want) {
			t.Errorf("string %q: got %s, want %s", s, got, want)
		}
	}
}

// TestAppendJSONFloatMatchesStdlib pins the float encoder against
// encoding/json across format boundaries.
func TestAppendJSONFloatMatchesStdlib(t *testing.T) {
	inputs := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -42.5,
		0.1, 0.30000000000000004, 123456.789,
		1e-6, 9.999999e-7, 1e-7, 2.5e-8, 5e-324,
		1e20, 9.999e20, 1e21, 5e21, 1e22,
		1.7976931348623157e308, 40, 100000,
	}
	for _, f := range inputs {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONFloat(nil, f)
		if !bytes.Equal(got, want) {
			t.Errorf("float %v: got %s, want %s", f, got, want)
		}
	}
}

// TestCanonicalizerSteadyStateAllocs pins the fused path's allocation
// budget: a warm Canonicalizer parsing a document inside the scanner's
// subset and emitting canonical bytes into a reused buffer allocates
// nothing — names stay spans into the document, and sorting and
// fingerprinting work in the reused arrays.
func TestCanonicalizerSteadyStateAllocs(t *testing.T) {
	doc := []byte(canonicalDocs()["permuted edges"])
	var c Canonicalizer
	buf := make([]byte, 0, 4096)
	if err := c.Parse(doc); err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(doc)
	if c.Scan(&sc); !sc.End() {
		t.Fatal("the pinned document must lie inside the scanner's subset")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Parse(doc); err != nil {
			t.Fatal(err)
		}
		buf = c.AppendCanonicalJSON(buf[:0])
		_ = c.Fingerprint()
	})
	if allocs > 0 {
		t.Errorf("steady-state Parse+Append allocates %.1f times, want 0", allocs)
	}
}

// TestScannerSubset pins which documents the scanner accepts and which
// it declines, and that Parse answers both identically to
// ParseReference.
func TestScannerSubset(t *testing.T) {
	accept := map[string]string{
		"compact":        `{"name":"g","tasks":[{"id":0,"name":"a","load":1.5}],"edges":null}`,
		"whitespace":     " {\n\t\"tasks\" : [ { \"id\" : 0 , \"load\" : 1 } ] , \"edges\" : [ ] }\r\n",
		"empty":          `{}`,
		"raw utf-8":      `{"name":"täsk 世界  ","tasks":null}`,
		"html bytes":     `{"name":"<b>&</b>","tasks":[]}`,
		"missing fields": `{"tasks":[{},{"id":1}]}`,
		"numbers":        `{"tasks":[{"id":-0,"load":-0},{"id":1,"load":1e-7},{"id":2,"load":12345678901234567890},{"id":3,"load":0.5E+2}]}`,
		"semantic error": `{"tasks":[{"id":0,"load":1}],"edges":[{"from":0,"to":0,"bits":1}]}`,
		"int64 bounds":   `{"tasks":[{"id":0}],"edges":[{"from":9223372036854775807,"to":-9223372036854775808}]}`,
	}
	decline := map[string]string{
		"syntax":            `{"tasks":[}`,
		"trailing data":     `{} {}`,
		"trailing comma":    `{"tasks":[],}`,
		"escape":            `{"name":"a\nb"}`,
		"unicode escape":    `{"name":"\u00e4"}`,
		"control char":      "{\"name\":\"a\tb\"}",
		"invalid utf-8":     "{\"name\":\"\xff\"}",
		"case variant":      `{"Tasks":[]}`,
		"unknown key":       `{"tasks":[],"extra":1}`,
		"duplicate key":     `{"tasks":[],"tasks":[]}`,
		"duplicate in task": `{"tasks":[{"id":0,"id":0}]}`,
		"null name":         `{"name":null}`,
		"null load":         `{"tasks":[{"id":0,"load":null}]}`,
		"null task":         `{"tasks":[null]}`,
		"float id":          `{"tasks":[{"id":0.0}]}`,
		"exponent id":       `{"tasks":[{"id":1e0}]}`,
		"huge id":           `{"tasks":[{"id":1234567890123456789012}]}`,
		"id past int64":     `{"tasks":[{"id":9223372036854775808}]}`,
		"id below int64":    `{"tasks":[{"id":-9223372036854775809}]}`,
		"huge load":         `{"tasks":[{"id":0,"load":1e400}]}`,
		"leading zero":      `{"tasks":[{"id":01}]}`,
		"bare point":        `{"tasks":[{"id":0,"load":1.}]}`,
		"bare exponent":     `{"tasks":[{"id":0,"load":1e}]}`,
		"tasks object":      `{"tasks":{}}`,
		"bom":               "\xef\xbb\xbf{}",
		"top-level null":    `null`,
	}
	var fast, ref Canonicalizer
	check := func(name, doc string, wantAccept bool) {
		sc := NewScanner([]byte(doc))
		fast.Scan(&sc)
		if sc.End() != wantAccept {
			t.Errorf("%s: scanner accepted=%v, want %v", name, sc.End(), wantAccept)
		}
		err := fast.Parse([]byte(doc))
		refErr := ref.ParseReference([]byte(doc))
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Errorf("%s: Parse error %v, reference %v", name, err, refErr)
		}
		if err == nil && !bytes.Equal(fast.AppendCanonicalJSON(nil), ref.AppendCanonicalJSON(nil)) {
			t.Errorf("%s: canonical bytes differ from the reference", name)
		}
	}
	for name, doc := range accept {
		check(name, doc, true)
	}
	for name, doc := range decline {
		check(name, doc, false)
	}
}

// TestGraphCopiesNames pins the lifetime of the scanner's name spans:
// they alias the parsed document until Graph copies them out or Reset
// drops them, after which the document's buffer can be reused.
func TestGraphCopiesNames(t *testing.T) {
	doc := []byte(`{"name":"graph","tasks":[{"id":0,"name":"alpha","load":1}],"edges":null}`)
	var c Canonicalizer
	if err := c.Parse(doc); err != nil {
		t.Fatal(err)
	}
	g, err := c.Graph()
	if err != nil {
		t.Fatal(err)
	}
	for i := range doc {
		doc[i] = 'x'
	}
	if g.Name() != "graph" || g.Task(0).Name != "alpha" {
		t.Fatalf("materialized names changed with the document: %q, %q", g.Name(), g.Task(0).Name)
	}
	if c.Reset(); c.text != nil || len(c.tasks) != 0 {
		t.Fatal("Reset kept a reference to the parsed document")
	}
}
