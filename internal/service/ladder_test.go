package service

import (
	"bytes"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/remotecache"
)

// TestLadderPromotesIntoEveryRungAbove is the table over the rungs below
// memory. A healthy replica warms the disk tier and the dtcached daemon;
// each case then restarts so that the first rung able to answer is the
// case's rung. The answer must carry the rung's tag with the healthy
// bytes, be promoted into memory (the repeat is a "hit"), and be written
// into every rung above: restarting on the same directory with no remote
// tier serves it tagged "disk" — for the remote case, that is the
// promotion of a remote hit into the disk tier.
func TestLadderPromotesIntoEveryRungAbove(t *testing.T) {
	cases := []struct {
		rung     string
		warmDisk bool // restart on the warmed dir (else a cold one)
	}{
		{rung: "disk", warmDisk: true},
		{rung: "remote", warmDisk: false},
	}
	for _, tc := range cases {
		t.Run(tc.rung, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			cached := remotecache.NewServer(remotecache.ServerConfig{})
			go cached.Serve(ln)
			t.Cleanup(func() { cached.Close() })
			addr := ln.Addr().String()
			payload := wireRequest(t, "MM", func(r *ScheduleRequest) { r.Seed = 4711 })

			warmDir := t.TempDir()
			_, ts1, stop1 := startServer(t, Config{CacheSize: 64, CacheDir: warmDir, RemoteAddr: addr})
			resp, want := post(t, ts1.URL+"/v1/schedule", payload)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("warm solve: %d %s", resp.StatusCode, want)
			}
			stop1() // drains both write-behind queues
			deadline := time.Now().Add(5 * time.Second)
			for cached.Stats().Entries == 0 {
				if time.Now().After(deadline) {
					t.Fatal("publish never reached the daemon")
				}
				time.Sleep(5 * time.Millisecond)
			}

			dir := warmDir
			if !tc.warmDisk {
				dir = t.TempDir()
			}
			svc2, ts2, stop2 := startServer(t, Config{CacheSize: 64, CacheDir: dir, RemoteAddr: addr})
			for _, wantTag := range []string{tc.rung, "hit"} {
				resp, got := post(t, ts2.URL+"/v1/schedule", payload)
				if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
					t.Fatalf("replay: status %d, identical=%v", resp.StatusCode, bytes.Equal(got, want))
				}
				if tag := resp.Header.Get("X-DTServe-Cache"); tag != wantTag {
					t.Fatalf("replay tag %q, want %q", tag, wantTag)
				}
			}
			st := svc2.Stats()
			if st.Solves != 0 || st.Cache.Hits != 1 || st.Disk.Hits+st.Remote.Hits != 1 {
				t.Fatalf("solves %d, mem hits %d, disk hits %d, remote hits %d; want 0, 1 and one rung hit",
					st.Solves, st.Cache.Hits, st.Disk.Hits, st.Remote.Hits)
			}
			if tc.rung == "disk" && st.Remote.Misses != 0 {
				t.Fatalf("a disk hit consulted the remote rung (%d misses)", st.Remote.Misses)
			}
			if err := CheckLaw(st); err != nil {
				t.Fatal(err)
			}
			stop2()

			svc3, ts3, _ := startServer(t, Config{CacheSize: 64, CacheDir: dir})
			resp, got := post(t, ts3.URL+"/v1/schedule", payload)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("restart replay: status %d, identical=%v", resp.StatusCode, bytes.Equal(got, want))
			}
			if tag := resp.Header.Get("X-DTServe-Cache"); tag != "disk" {
				t.Fatalf("restart without remote: tag %q, want \"disk\" (the %s hit was not written to disk)", tag, tc.rung)
			}
			if err := CheckLaw(svc3.Stats()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
