package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/taskgraph"
	"repro/internal/topology"
)

// cacheKey is the legacy content address of a request and the oracle
// fusedKey must match byte for byte: it materializes the graph, marshals
// its canonical JSON and the option block with encoding/json, and hashes
// the document.
func cacheKey(g *taskgraph.Graph, topoName string, comm topology.CommParams,
	solverName string, sa core.Options, timeoutMS, memberTimeoutMS int) (string, error) {

	graphJSON, err := g.CanonicalJSON()
	if err != nil {
		return "", err
	}
	key := struct {
		Graph json.RawMessage `json:"graph"`
		keyOptions
	}{graphJSON, makeKeyOptions(topoName, comm, solverName, sa, timeoutMS, memberTimeoutMS)}
	data, err := json.Marshal(key)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%016x-%s", g.Fingerprint(), hex.EncodeToString(sum[:16])), nil
}

// TestFusedKeyMatchesCacheKey pins the zero-copy contract: for any
// accepted graph document and any option combination, the key derived by
// the streaming path (Canonicalizer + fusedKey, no *Graph, no canonical
// re-marshal) is byte-identical to the legacy cacheKey of the decoded
// graph. A mismatch would silently split the cache between old and new
// entries — including the persistent disk tier across a deploy.
func TestFusedKeyMatchesCacheKey(t *testing.T) {
	ne, err := cliutil.BuildProgram("NE")
	if err != nil {
		t.Fatal(err)
	}
	neJSON, err := json.Marshal(ne)
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{
		"newton-euler":   string(neJSON),
		"permuted":       `{"name":"g","tasks":[{"id":2,"load":3},{"id":0,"load":1},{"id":1,"name":"mid","load":2}],"edges":[{"from":1,"to":2,"bits":8},{"from":0,"to":1,"bits":4}]}`,
		"duplicate edge": `{"tasks":[{"id":0,"load":1},{"id":1,"load":1}],"edges":[{"from":0,"to":1,"bits":0.1},{"from":0,"to":1,"bits":0.2}]}`,
		"hostile name":   `{"name":"<b>&\"q\"</b>","tasks":[{"id":0,"name":"täsk\n","load":1e-7}],"edges":null}`,
	}

	comm := topology.DefaultCommParams()
	commScaled := comm
	commScaled.Scale = 0.25

	base := core.DefaultOptions()
	coop := base
	coop.Restarts = 4
	coop.Cooperative = true
	seeded := base
	seeded.Seed = 1991
	seeded.Wb = 0.7
	seeded.Wc = 0.3

	type combo struct {
		topo          string
		comm          topology.CommParams
		solver        string
		sa            core.Options
		timeoutMS     int
		memberTimeout int
	}
	combos := map[string]combo{
		"defaults":    {"hypercube-8", comm, "sa", base, 0, 0},
		"seeded":      {"ring-9", commScaled, "sa", seeded, 250, 0},
		"portfolio":   {"mesh-3x4", comm, "portfolio", base, 1000, 50},
		"cooperative": {"hypercube-8", comm, "sa", coop, 0, 0},
	}

	var c taskgraph.Canonicalizer
	var buf []byte
	for dname, doc := range docs {
		var g taskgraph.Graph
		if err := json.Unmarshal([]byte(doc), &g); err != nil {
			t.Fatalf("%s: decode: %v", dname, err)
		}
		if err := c.Parse([]byte(doc)); err != nil {
			t.Fatalf("%s: Parse: %v", dname, err)
		}
		for cname, cb := range combos {
			want, err := cacheKey(&g, cb.topo, cb.comm, cb.solver, cb.sa, cb.timeoutMS, cb.memberTimeout)
			if err != nil {
				t.Fatalf("%s/%s: cacheKey: %v", dname, cname, err)
			}
			var got string
			got, buf, err = fusedKey(&c, buf,
				makeKeyOptions(cb.topo, cb.comm, cb.solver, cb.sa, cb.timeoutMS, cb.memberTimeout))
			if err != nil {
				t.Fatalf("%s/%s: fusedKey: %v", dname, cname, err)
			}
			if got != want {
				t.Errorf("%s/%s: fused key %s != cache key %s", dname, cname, got, want)
			}
		}
	}
}

// TestCooperativeFlagsSplitCacheKeys pins that the cooperative wire flag
// is part of the content address — its schedules can differ from plain
// restarts, so they must never share a cache line — while leaving keys
// for requests without the flag byte-stable (the field marshals away
// under omitempty, so pre-existing disk tiers stay warm).
func TestCooperativeFlagsSplitCacheKeys(t *testing.T) {
	g, err := cliutil.BuildProgram("FFT")
	if err != nil {
		t.Fatal(err)
	}
	comm := topology.DefaultCommParams()
	plain := core.DefaultOptions()
	plain.Restarts = 4
	coop := plain
	coop.Cooperative = true

	kPlain, err := cacheKey(g, "hypercube-8", comm, "sa", plain, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	kCoop, err := cacheKey(g, "hypercube-8", comm, "sa", coop, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if kPlain == kCoop {
		t.Fatalf("cooperative flag does not split keys: plain %s coop %s", kPlain, kCoop)
	}
}
