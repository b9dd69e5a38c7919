package taskgraph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// FuzzUnmarshalJSON checks that arbitrary input never panics the decoder
// and that accepted graphs are valid DAGs.
func FuzzUnmarshalJSON(f *testing.F) {
	g, _ := ForkJoin("seed", 3, 5, 1, 40)
	data, _ := json.Marshal(g)
	f.Add(data)
	f.Add([]byte(`{"name":"x","tasks":[{"id":0,"load":1}],"edges":[]}`))
	f.Add([]byte(`{"name":"x","tasks":[{"id":0,"load":1},{"id":1,"load":2}],"edges":[{"from":0,"to":1,"bits":40}]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var decoded Graph
		if err := json.Unmarshal(data, &decoded); err != nil {
			return // rejected input is fine
		}
		if err := decoded.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid graph: %v", err)
		}
		// Accepted graphs round-trip.
		out, err := json.Marshal(&decoded)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		var again Graph
		if err := json.Unmarshal(out, &again); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

// FuzzCanonicalizerMatchesUnmarshal holds the streaming canonicalizer to
// the Graph.UnmarshalJSON contract on arbitrary input: identical
// accept/reject decisions with identical error text, and on accept,
// canonical bytes equal to CanonicalJSON and an equal fingerprint.
func FuzzCanonicalizerMatchesUnmarshal(f *testing.F) {
	g, _ := ForkJoin("seed", 3, 5, 1, 40)
	data, _ := json.Marshal(g)
	f.Add(data)
	f.Add([]byte(`{"name":"x","tasks":[{"id":1,"load":1},{"id":0,"load":2}],"edges":[{"from":1,"to":0,"bits":40},{"from":1,"to":0,"bits":2}]}`))
	f.Add([]byte(`{"name":"<& >","tasks":[{"id":0,"name":"�","load":1e-7}],"edges":null}`))
	f.Add([]byte(`{"tasks":[{"id":0,"load":1},{"id":1,"load":1}],"edges":[{"from":0,"to":1,"bits":1},{"from":1,"to":0,"bits":1}]}`))
	f.Add([]byte(`not json`))
	var c Canonicalizer
	f.Fuzz(func(t *testing.T, data []byte) {
		var decoded Graph
		refErr := json.Unmarshal(data, &decoded)
		err := c.Parse(data)
		if err == nil {
			_, err = c.Graph()
		}
		if refErr != nil {
			if err == nil {
				t.Fatalf("canonicalizer accepted input UnmarshalJSON rejects: %v", refErr)
			}
			if err.Error() != refErr.Error() {
				t.Fatalf("error mismatch:\ncanonicalizer %q\nunmarshal     %q", err, refErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("canonicalizer rejected input UnmarshalJSON accepts: %v", err)
		}
		want, werr := decoded.CanonicalJSON()
		if werr != nil {
			return // NaN/Inf can't come from JSON, but stay defensive
		}
		if got := c.AppendCanonicalJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("canonical bytes differ:\nstreamed %s\nwant     %s", got, want)
		}
		if c.Fingerprint() != decoded.Fingerprint() {
			t.Fatalf("fingerprint %#x != graph %#x", c.Fingerprint(), decoded.Fingerprint())
		}
	})
}

// FuzzScanMatchesReference holds the scanner to encoding/json on
// arbitrary input. Wherever the scanner accepts a document, checking and
// canonicalizing what it read must give exactly what ParseReference
// gives: the same error text (so a document encoding/json rejects can
// never slip through, only be declined), and on success the same
// canonical bytes, fingerprint, sketch and materialized Graph. Parse, which
// picks between the two, must agree with the reference everywhere.
func FuzzScanMatchesReference(f *testing.F) {
	g, _ := ForkJoin("seed", 3, 5, 1, 40)
	data, _ := json.Marshal(g)
	f.Add(data)
	f.Add([]byte(`{"name":"x","tasks":[{"id":1,"load":1},{"id":0,"name":"täsk","load":2}],"edges":[{"from":1,"to":0,"bits":40},{"from":1,"to":0,"bits":2}]}`))
	f.Add([]byte(`{"name":"<& >","tasks":[{"id":0,"name":"ä","load":1e-7}],"edges":null}`))
	f.Add([]byte(`{"tasks":[{"id":0,"load":-0},{"id":1,"load":1.5e3}],"edges":[{"from":0,"to":1,"bits":1},{"from":1,"to":0,"bits":1}]}`))
	f.Add([]byte(`{"Tasks":[{"id":0,"id":1}],"edges":[{"from":0.0}]}`))
	f.Add([]byte(" {\"tasks\" : null , \"edges\" : [ ] } "))
	f.Add([]byte(`not json`))
	var fast, ref, viaParse Canonicalizer
	f.Fuzz(func(t *testing.T, data []byte) {
		refErr := ref.ParseReference(data)
		if err := viaParse.Parse(data); fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("Parse error %v, reference %v", err, refErr)
		}
		sc := NewScanner(data)
		fast.Scan(&sc)
		if !sc.End() {
			return // declined: Parse answered through the reference
		}
		err := fast.Canonicalize()
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("scanner accepted; canonicalize error %v, reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		if got, want := fast.AppendCanonicalJSON(nil), ref.AppendCanonicalJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("canonical bytes differ:\nscanner   %s\nreference %s", got, want)
		}
		if fast.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("fingerprint %#x != reference %#x", fast.Fingerprint(), ref.Fingerprint())
		}
		if fast.Sketch() != ref.Sketch() {
			t.Fatal("sketch differs from the reference")
		}
		fg, ferr := fast.Graph()
		rg, rerr := ref.Graph()
		if fmt.Sprint(ferr) != fmt.Sprint(rerr) {
			t.Fatalf("Graph error %v, reference %v", ferr, rerr)
		}
		if !reflect.DeepEqual(fg, rg) {
			t.Fatal("materialized graph differs from the reference")
		}
	})
}
