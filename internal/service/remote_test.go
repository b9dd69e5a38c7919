package service

import (
	"bytes"
	"crypto/sha256"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/remotecache"
)

// captureTier records every Put the server publishes to the remote tier
// without storing anything — the seam corruption tests use to learn the
// exact cache key (and raw body) of a request before planting a poisoned
// value under it in a real daemon.
type captureTier struct {
	mu   sync.Mutex
	puts map[string][]byte
}

func (c *captureTier) Get(key string) ([]byte, bool) { return nil, false }
func (c *captureTier) Put(key string, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts[key] = append([]byte(nil), val...)
}
func (c *captureTier) Stats() TierStats { return TierStats{} }
func (c *captureTier) Close()           {}

// rawPut stores val verbatim under key in the daemon — the client-side
// Seal deliberately bypassed, so tests can plant values a correct writer
// could never produce.
func rawPut(t *testing.T, addr, key string, val []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := remotecache.AppendRequest(nil, remotecache.OpPut, key, val)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	status, _, err := remotecache.ReadResponse(conn)
	if err != nil || status != remotecache.StatusOK {
		t.Fatalf("raw put: status %c, err %v", status, err)
	}
}

// TestRemoteTierIntegrity is the never-serve-corrupt proof. A daemon is
// seeded with one honestly sealed value and several damaged ones —
// checksum-flipped, truncated mid-body, and shorter than a checksum —
// all under the exact keys a replica will ask for. The replica must
// serve the honest value from the remote tier and detect every damaged
// one on read: counted in Corrupt, degraded to a miss, answered 200 via
// a fresh solve with bytes identical to a healthy replica's answer.
func TestRemoteTierIntegrity(t *testing.T) {
	cases := []struct {
		name   string
		seed   int64
		poison func(sealed []byte) []byte // nil = plant honestly
	}{
		{"honest", 9000, nil},
		{"checksum-flip", 9001, func(s []byte) []byte {
			s[sha256.Size] ^= 0x01 // first body byte: hash no longer matches
			return s
		}},
		{"truncated-body", 9002, func(s []byte) []byte { return s[:len(s)-3] }},
		{"shorter-than-checksum", 9003, func(s []byte) []byte { return s[:sha256.Size-5] }},
	}

	// Phase 1: a capture replica learns each request's cache key and the
	// raw body a healthy fleet member would publish.
	capture := &captureTier{puts: make(map[string][]byte)}
	svc1, ts1 := newTestServer(t, Config{
		CacheSize: 64,
		WrapTier: func(name string, under Tier) Tier {
			if name == "remote" {
				return capture
			}
			return under
		},
	})
	payloads := make([][]byte, len(cases))
	healthy := make([][]byte, len(cases))
	for i, tc := range cases {
		payloads[i] = wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Seed = tc.seed })
		resp, body := post(t, ts1.URL+"/v1/schedule", payloads[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: capture solve: %d %s", tc.name, resp.StatusCode, body)
		}
		healthy[i] = body
	}
	capture.mu.Lock()
	keys := make([]string, 0, len(capture.puts))
	bodyByKey := capture.puts
	for k := range bodyByKey {
		keys = append(keys, k)
	}
	capture.mu.Unlock()
	if len(keys) != len(cases) {
		t.Fatalf("captured %d published keys, want %d", len(keys), len(cases))
	}
	_ = svc1

	// Phase 2: plant each case's value — sealed honestly, then damaged
	// per the case — under its real key in a real daemon.
	cachedLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cached := remotecache.NewServer(remotecache.ServerConfig{})
	go cached.Serve(cachedLn)
	t.Cleanup(func() { cached.Close() })
	addr := cachedLn.Addr().String()

	keyOf := make(map[int]string, len(cases))
	for i := range cases {
		// Match each captured key to its case by the published body.
		for k, b := range bodyByKey {
			if bytes.Equal(b, healthy[i]) {
				keyOf[i] = k
			}
		}
		if keyOf[i] == "" {
			t.Fatalf("%s: no captured publish matches the response body", cases[i].name)
		}
		sealed := remotecache.Seal(bodyByKey[keyOf[i]])
		if cases[i].poison != nil {
			sealed = cases[i].poison(sealed)
		}
		rawPut(t, addr, keyOf[i], sealed)
	}

	// Phase 3: a cold replica pointed at the poisoned daemon.
	svc2, ts2 := newTestServer(t, Config{
		CacheSize:  64,
		RemoteAddr: addr,
	})
	wantCorrupt := uint64(0)
	for i, tc := range cases {
		resp, got := post(t, ts2.URL+"/v1/schedule", payloads[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, got)
		}
		if !bytes.Equal(got, healthy[i]) {
			t.Fatalf("%s: body differs from the healthy replica's answer", tc.name)
		}
		tag := resp.Header.Get("X-DTServe-Cache")
		if tc.poison == nil {
			if tag != "remote" {
				t.Fatalf("honest plant served tag %q, want \"remote\" (the planting mechanism itself is broken)", tag)
			}
		} else {
			wantCorrupt++
			if tag != "miss" {
				t.Fatalf("%s: served tag %q, want \"miss\" (corrupt value must degrade to a solve)", tc.name, tag)
			}
		}
	}

	st := svc2.Stats()
	if st.Remote.Corrupt != wantCorrupt {
		t.Fatalf("remote corrupt = %d, want %d (one per damaged plant)", st.Remote.Corrupt, wantCorrupt)
	}
	if st.Remote.Errors < wantCorrupt {
		t.Fatalf("remote errors %d do not include the %d corrupt reads", st.Remote.Errors, wantCorrupt)
	}
	if st.Remote.Hits != 1 {
		t.Fatalf("remote hits = %d, want exactly 1 (the honest plant)", st.Remote.Hits)
	}
	if err := CheckLaw(st); err != nil {
		t.Fatal(err)
	}
}

// TestRemotePromotionWarmsLocalTiers: a remote hit must be promoted into
// the local memory tier, so the daemon is consulted once per key per
// replica, not once per request.
func TestRemotePromotionWarmsLocalTiers(t *testing.T) {
	cachedLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cached := remotecache.NewServer(remotecache.ServerConfig{})
	go cached.Serve(cachedLn)
	t.Cleanup(func() { cached.Close() })
	addr := cachedLn.Addr().String()

	payload := wireRequest(t, "MM", func(r *ScheduleRequest) { r.Seed = 77 })

	svc1, ts1 := newTestServer(t, Config{CacheSize: 64, RemoteAddr: addr})
	resp, want := post(t, ts1.URL+"/v1/schedule", payload)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed solve: %d %s", resp.StatusCode, want)
	}
	// The publish is write-behind; wait for the daemon to hold it.
	deadline := time.Now().Add(5 * time.Second)
	for cached.Stats().Entries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("publish never reached the daemon")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = svc1

	svc2, ts2 := newTestServer(t, Config{CacheSize: 64, RemoteAddr: addr})
	resp, got := post(t, ts2.URL+"/v1/schedule", payload)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("remote replay: status %d, identical=%v", resp.StatusCode, bytes.Equal(got, want))
	}
	if tag := resp.Header.Get("X-DTServe-Cache"); tag != "remote" {
		t.Fatalf("first replay tag %q, want \"remote\"", tag)
	}
	resp, got = post(t, ts2.URL+"/v1/schedule", payload)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("promoted replay: status %d, identical=%v", resp.StatusCode, bytes.Equal(got, want))
	}
	if tag := resp.Header.Get("X-DTServe-Cache"); tag != "hit" {
		t.Fatalf("second replay tag %q, want \"hit\" (remote hit was not promoted into memory)", tag)
	}

	st := svc2.Stats()
	if st.Solves != 0 {
		t.Fatalf("replica 2 solved %d times; the remote tier should have supplied everything", st.Solves)
	}
	if st.Remote.Hits != 1 || st.Cache.Hits != 1 {
		t.Fatalf("remote hits %d / mem hits %d, want 1 / 1", st.Remote.Hits, st.Cache.Hits)
	}
	if err := CheckLaw(st); err != nil {
		t.Fatal(err)
	}
}
