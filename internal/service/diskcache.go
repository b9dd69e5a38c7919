package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/lru"
)

// DiskCache is the persistent tier of the result cache: each response is
// stored under its content address at <dir>/<shard>/<key>, so a restarted
// server pointed at the same directory replays previously solved graphs
// byte-identically without invoking any solver. Safe for concurrent use.
//
// Durability protocol:
//
//   - Writes are write-behind: Put enqueues and returns immediately, a
//     single writer goroutine persists entries off the solve hot path
//     (Close drains the queue, so a graceful shutdown loses nothing; a
//     backlogged queue drops writes — the tier is a cache, not a log).
//   - Each file is written to a temp name in the same shard directory,
//     fsynced, then renamed into place, so readers only ever observe
//     complete entries and a crash leaves at worst a tmp- file that the
//     next startup scan removes.
//   - Every entry carries a version magic, a SHA-256 body checksum and
//     the body length; a truncated, corrupted or stale-format entry is
//     detected on read, deleted, and counted in Errors — never served.
//   - The byte budget is enforced by LRU eviction: recency is tracked
//     in-process and persisted as the file mtime on each hit, so a
//     restart recovers the approximate LRU order from the filesystem.
type DiskCache struct {
	dir      string
	maxBytes int64

	mu sync.Mutex
	// entries indexes the files by key, each sized on disk with its
	// header; an eviction deletes the file.
	entries   *lru.LRU[string, struct{}]
	hits      uint64
	misses    uint64
	writes    uint64
	evictions uint64
	errors    uint64
	corrupt   uint64

	queue *writeBehind

	// writeObs, when set, observes the wall-clock duration of each
	// successful persist (temp write + fsync + rename) — the disk-write
	// latency histogram's feed. Set once before traffic via
	// SetWriteObserver; read by the writer goroutine under mu.
	writeObs func(time.Duration)
}

// diskMagic versions the entry format; bump the last byte on any layout
// change so old files are detected as stale and re-solved, not misread.
var diskMagic = [4]byte{'D', 'T', 'C', 1}

// Entry layout: magic (4) | SHA-256 of body (32) | body length (8, BE) | body.
const diskHeaderLen = 4 + sha256.Size + 8

// defaultDiskMaxBytes bounds the on-disk footprint when the caller gives
// no budget. Disk is cheaper than memory, so the default is larger than
// the memory tier's 256 MiB.
const defaultDiskMaxBytes = 1 << 30

// NewDiskCache opens (creating if needed) a persistent cache rooted at
// dir with the given byte budget (<= 0 means 1 GiB). Existing entries are
// indexed by file mtime so the LRU order survives restarts; leftover
// temp files from a crashed writer are removed; the budget is enforced
// immediately.
func NewDiskCache(dir string, maxBytes int64) (*DiskCache, error) {
	if maxBytes <= 0 {
		maxBytes = defaultDiskMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &DiskCache{dir: dir, maxBytes: maxBytes}
	// The budget never evicts the newest entry, even when it alone
	// exceeds it — a result worth solving is worth keeping, mirroring the
	// memory tier's rule.
	d.entries = lru.New(0, maxBytes, func(key string, _ struct{}) {
		d.evictions++
		_ = os.Remove(d.path(key))
	})
	if err := d.scan(); err != nil {
		return nil, err
	}
	d.queue = newWriteBehind(d.write)
	return d, nil
}

// scan rebuilds the in-memory index from the directory, enforcing the
// budget as it goes: entries are ordered by mtime (the persisted recency)
// and stray tmp- files from an interrupted writer are deleted.
func (d *DiskCache) scan() error {
	shards, err := os.ReadDir(d.dir)
	if err != nil {
		return err
	}
	type scanned struct {
		key   string
		size  int64
		mtime time.Time
	}
	var found []scanned
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(d.dir, shard.Name()))
		if err != nil {
			return err
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			path := filepath.Join(d.dir, shard.Name(), f.Name())
			if strings.HasPrefix(f.Name(), "tmp-") {
				_ = os.Remove(path)
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue // raced with a concurrent delete
			}
			found = append(found, scanned{f.Name(), info.Size(), info.ModTime()})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	for _, s := range found {
		// Oldest first: the newest mtime ends up most recently used.
		d.entries.Put(s.key, struct{}{}, s.size)
	}
	return nil
}

// path returns the entry file for a key, sharded by the key's first two
// fingerprint characters to keep directories small.
func (d *DiskCache) path(key string) string {
	shard := key
	if len(shard) > 2 {
		shard = shard[:2]
	}
	return filepath.Join(d.dir, shard, key)
}

// encodeDiskEntry frames a body with the version magic, checksum and
// length header.
func encodeDiskEntry(val []byte) []byte {
	out := make([]byte, diskHeaderLen+len(val))
	copy(out, diskMagic[:])
	sum := sha256.Sum256(val)
	copy(out[4:], sum[:])
	binary.BigEndian.PutUint64(out[4+sha256.Size:], uint64(len(val)))
	copy(out[diskHeaderLen:], val)
	return out
}

// decodeDiskEntry verifies the header and checksum and returns the body;
// ok is false for truncated, corrupt or stale-format data.
func decodeDiskEntry(data []byte) (body []byte, ok bool) {
	if len(data) < diskHeaderLen || !bytes.Equal(data[:4], diskMagic[:]) {
		return nil, false
	}
	n := binary.BigEndian.Uint64(data[4+sha256.Size : diskHeaderLen])
	if n != uint64(len(data)-diskHeaderLen) {
		return nil, false
	}
	body = data[diskHeaderLen:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], data[4:4+sha256.Size]) {
		return nil, false
	}
	return body, true
}

// Get returns the stored bytes for key and whether they were present. A
// corrupt or stale-format entry is deleted and counted in Errors and
// Corrupt, then reported as a miss — corrupt bytes are never served.
func (d *DiskCache) Get(key string) ([]byte, bool) {
	path := d.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		d.mu.Lock()
		d.misses++
		if !os.IsNotExist(err) {
			d.errors++
		} else {
			// Index entry with no file (externally removed): drop it.
			d.entries.Remove(key)
		}
		d.mu.Unlock()
		return nil, false
	}
	body, ok := decodeDiskEntry(data)
	if !ok {
		_ = os.Remove(path)
		d.mu.Lock()
		d.misses++
		d.errors++
		d.corrupt++
		d.entries.Remove(key)
		d.mu.Unlock()
		return nil, false
	}
	d.mu.Lock()
	d.hits++
	// Touch only an entry still in the index: the read raced nothing or
	// a rewrite. If the key is absent, the writer evicted it between our
	// ReadFile and this lock (the bytes read are still whole — rename
	// and remove are atomic) — re-inserting would create a ghost index
	// entry for a deleted file and permanently inflate the accounting.
	d.entries.Get(key)
	d.mu.Unlock()
	// Persist the recency so a restart recovers the LRU order.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return body, true
}

// Put schedules val to be persisted under key and returns immediately;
// the writer goroutine performs the atomic write and any evictions off
// the caller's path. A full queue or closed cache drops the write.
func (d *DiskCache) Put(key string, val []byte) {
	if d.queue.put(key, val) {
		d.mu.Lock()
		d.errors++
		d.mu.Unlock()
	}
}

// SetWriteObserver installs fn to be called with the duration of every
// successful persist. Call before the cache sees traffic (the server
// wires it during construction); a nil fn is a no-op.
func (d *DiskCache) SetWriteObserver(fn func(time.Duration)) {
	d.mu.Lock()
	d.writeObs = fn
	d.mu.Unlock()
}

// write persists one entry atomically (temp file + fsync + rename in the
// same shard directory) and enforces the byte budget.
func (d *DiskCache) write(key string, val []byte) {
	writeStart := time.Now()
	shardDir := filepath.Dir(d.path(key))
	fail := func() {
		d.mu.Lock()
		d.errors++
		d.mu.Unlock()
	}
	if err := os.MkdirAll(shardDir, 0o755); err != nil {
		fail()
		return
	}
	tmp, err := os.CreateTemp(shardDir, "tmp-*")
	if err != nil {
		fail()
		return
	}
	framed := encodeDiskEntry(val)
	if _, err := tmp.Write(framed); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), d.path(key))
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		fail()
		return
	}
	d.mu.Lock()
	d.writes++
	obs := d.writeObs
	d.entries.Put(key, struct{}{}, int64(len(framed)))
	d.mu.Unlock()
	if obs != nil {
		obs(time.Since(writeStart))
	}
}

// Close drains the write-behind queue and stops the writer: after Close
// returns, every accepted Put is durably on disk. Later Puts are dropped;
// Gets keep working. Close is idempotent.
func (d *DiskCache) Close() {
	d.queue.close()
}

// Stats returns the current counters.
func (d *DiskCache) Stats() TierStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return TierStats{
		Hits:      d.hits,
		Misses:    d.misses,
		Writes:    d.writes,
		Evictions: d.evictions,
		Errors:    d.errors,
		Corrupt:   d.corrupt,
		Entries:   d.entries.Len(),
		Bytes:     d.entries.Bytes(),
		MaxBytes:  d.maxBytes,
	}
}
