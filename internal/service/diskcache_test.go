package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// newDisk opens a DiskCache on a fresh temp dir and closes it with the
// test.
func newDisk(t *testing.T, dir string, maxBytes int64) *DiskCache {
	t.Helper()
	d, err := NewDiskCache(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// flush waits until the write-behind queue has persisted n writes (or
// errored trying); the writer is asynchronous, so tests must not assume a
// Put is on disk when it returns.
func flush(t *testing.T, d *DiskCache, writes uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := d.Stats()
		if st.Writes+st.Errors >= writes {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("write-behind queue never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := newDisk(t, dir, 0)
	d.Put("ab12", []byte("hello"))
	flush(t, d, 1)
	if v, ok := d.Get("ab12"); !ok || string(v) != "hello" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	// The entry lives under its two-character shard.
	if _, err := os.Stat(filepath.Join(dir, "ab", "ab12")); err != nil {
		t.Fatalf("entry not at sharded path: %v", err)
	}
	if _, ok := d.Get("missing"); ok {
		t.Fatal("absent key reported a hit")
	}
	st := d.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Errors != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.Entries != 1 || st.Bytes <= 5 {
		t.Fatalf("index stats %+v", st)
	}
}

// TestDiskCacheSurvivesReopen is the durability core: a new DiskCache on
// the same directory serves entries written by a previous one.
func TestDiskCacheSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d := newDisk(t, dir, 0)
	d.Put("aa11", []byte("first"))
	d.Put("bb22", []byte("second"))
	d.Close() // drains the queue

	d2 := newDisk(t, dir, 0)
	if v, ok := d2.Get("aa11"); !ok || string(v) != "first" {
		t.Fatalf("reopened Get(aa11) = %q, %v", v, ok)
	}
	if v, ok := d2.Get("bb22"); !ok || string(v) != "second" {
		t.Fatalf("reopened Get(bb22) = %q, %v", v, ok)
	}
	if st := d2.Stats(); st.Entries != 2 {
		t.Fatalf("reopen did not index existing entries: %+v", st)
	}
}

// TestDiskCacheCorruptionDetected hand-writes a truncated entry, a
// checksum-flipped entry and a wrong-version entry: each must be detected,
// deleted and counted in Errors and Corrupt — never served.
func TestDiskCacheCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	d := newDisk(t, dir, 0)
	d.Put("aa01", []byte("payload-aa01"))
	d.Close()

	good, err := os.ReadFile(d.path("aa01"))
	if err != nil {
		t.Fatal(err)
	}

	writeRaw := func(key string, data []byte) {
		if err := os.MkdirAll(filepath.Dir(d.path(key)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(d.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Truncated: header intact, body cut short.
	writeRaw("bb01", good[:len(good)-4])
	// Corrupted: right length, one body byte flipped.
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 0xff
	writeRaw("cc01", flipped)
	// Stale format: future version byte.
	staled := bytes.Clone(good)
	staled[3] = 99
	writeRaw("dd01", staled)
	// Shorter than any header.
	writeRaw("ee01", []byte("tiny"))

	d2 := newDisk(t, dir, 0)
	for _, key := range []string{"bb01", "cc01", "dd01", "ee01"} {
		if v, ok := d2.Get(key); ok {
			t.Fatalf("corrupt entry %s served: %q", key, v)
		}
		if _, err := os.Stat(d2.path(key)); !os.IsNotExist(err) {
			t.Fatalf("corrupt entry %s not deleted (err=%v)", key, err)
		}
	}
	if v, ok := d2.Get("aa01"); !ok || string(v) != "payload-aa01" {
		t.Fatalf("intact entry lost: %q, %v", v, ok)
	}
	if st := d2.Stats(); st.Errors != 4 || st.Corrupt != 4 || st.Hits != 1 {
		t.Fatalf("stats after corruption sweep: %+v", st)
	}
}

// TestDiskCacheEvictsLRUUnderBudget fills past the byte budget and checks
// the least-recently-used entries go first — and that a Get refreshes
// recency.
func TestDiskCacheEvictsLRUUnderBudget(t *testing.T) {
	dir := t.TempDir()
	// Each entry is diskHeaderLen+8 bytes; budget three entries.
	budget := int64(3 * (diskHeaderLen + 8))
	d := newDisk(t, dir, budget)
	for i := 0; i < 3; i++ {
		d.Put(fmt.Sprintf("k%d", i), []byte("12345678"))
	}
	flush(t, d, 3)
	if _, ok := d.Get("k0"); !ok { // refresh k0: k1 is now oldest
		t.Fatal("k0 missing before eviction")
	}
	d.Put("k3", []byte("12345678"))
	flush(t, d, 4)
	if _, ok := d.Get("k1"); ok {
		t.Fatal("LRU entry k1 survived the byte budget")
	}
	for _, key := range []string{"k0", "k2", "k3"} {
		if _, ok := d.Get(key); !ok {
			t.Fatalf("recently used %s was evicted", key)
		}
	}
	st := d.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes > budget {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

// TestDiskCacheReopenEnforcesBudget: a reopen with a smaller budget trims
// the directory down, oldest-mtime first.
func TestDiskCacheReopenEnforcesBudget(t *testing.T) {
	dir := t.TempDir()
	d := newDisk(t, dir, 0)
	for i := 0; i < 4; i++ {
		d.Put(fmt.Sprintf("k%d", i), []byte("12345678"))
		flush(t, d, uint64(i+1))
		// mtime granularity on some filesystems is coarse; space the
		// writes so the recency order is unambiguous.
		old := time.Now().Add(time.Duration(i-10) * time.Second)
		if err := os.Chtimes(d.path(fmt.Sprintf("k%d", i)), old, old); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()

	d2 := newDisk(t, dir, int64(2*(diskHeaderLen+8)))
	st := d2.Stats()
	if st.Entries != 2 || st.Evictions != 2 {
		t.Fatalf("reopen did not trim to budget: %+v", st)
	}
	for _, key := range []string{"k0", "k1"} {
		if _, ok := d2.Get(key); ok {
			t.Fatalf("oldest entry %s survived the reopen trim", key)
		}
	}
	for _, key := range []string{"k2", "k3"} {
		if _, ok := d2.Get(key); !ok {
			t.Fatalf("newest entry %s was trimmed", key)
		}
	}
}

// TestDiskCacheRemovesTempFiles: tmp- leftovers from a crashed writer are
// swept at startup and never indexed.
func TestDiskCacheRemovesTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "aa"), 0o755); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "aa", "tmp-12345")
	if err := os.WriteFile(stray, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := newDisk(t, dir, 0)
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray temp file survived startup (err=%v)", err)
	}
	if st := d.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("temp file was indexed: %+v", st)
	}
}

// TestDiskCacheDisabled: a server without a CacheDir has no disk rung. A
// cold traced solve records no disk_tier stage, nothing lands in the
// disk read histogram, and /statsz reports the disk object as zeros.
func TestDiskCacheDisabled(t *testing.T) {
	svc, ts := newTestServer(t, Config{CacheSize: 64})
	if len(svc.rungs) != 0 {
		t.Fatalf("memory-only server has %d rungs", len(svc.rungs))
	}
	resp, body := post(t, ts.URL+"/v1/schedule", wireRequest(t, "FFT", func(r *ScheduleRequest) { r.Trace = true }))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-DTServe-Cache") != "miss" {
		t.Fatalf("status %d, tag %q: %s", resp.StatusCode, resp.Header.Get("X-DTServe-Cache"), body)
	}
	var env tracedEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Trace == nil {
		t.Fatalf("no trace block (%v): %s", err, body)
	}
	want := []string{"decode", "canonicalize", "mem_tier", "materialize", "engine_queue", "solve", "marshal"}
	if got := depth0Stages(env.Trace); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("memory-only stages = %v, want %v", got, want)
	}
	if n := svc.readLatency["disk"].Snapshot().Count; n != 0 {
		t.Fatalf("disk read histogram observed %d reads without a disk rung", n)
	}
	if st := svc.Stats(); st.Disk != (TierStats{}) || st.Remote != (TierStats{}) {
		t.Fatalf("absent rungs report disk %+v, remote %+v", st.Disk, st.Remote)
	}
}

// TestDiskCachePutAfterCloseDropped: Close is a flush barrier; later Puts
// are dropped without panicking, Gets keep working.
func TestDiskCachePutAfterCloseDropped(t *testing.T) {
	dir := t.TempDir()
	d := newDisk(t, dir, 0)
	d.Put("aa", []byte("kept"))
	d.Close()
	d.Put("bb", []byte("dropped"))
	if _, ok := d.Get("bb"); ok {
		t.Fatal("post-Close Put was persisted")
	}
	if v, ok := d.Get("aa"); !ok || string(v) != "kept" {
		t.Fatalf("pre-Close entry unreadable after Close: %q, %v", v, ok)
	}
}

func TestEncodeDecodeDiskEntry(t *testing.T) {
	for _, body := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc123"), 1000)} {
		framed := encodeDiskEntry(body)
		got, ok := decodeDiskEntry(framed)
		if !ok || !bytes.Equal(got, body) {
			t.Fatalf("round trip failed for %d-byte body", len(body))
		}
		if len(framed) != diskHeaderLen+len(body) {
			t.Fatalf("frame length %d for %d-byte body", len(framed), len(body))
		}
	}
	if _, ok := decodeDiskEntry(nil); ok {
		t.Fatal("decoded empty data")
	}
	if _, ok := decodeDiskEntry([]byte(strings.Repeat("z", diskHeaderLen))); ok {
		t.Fatal("decoded garbage header")
	}
}
