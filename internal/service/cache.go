package service

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// Tier is one rung of the cache ladder below the memory tier: a byte
// store mapping a cache key (the request's content address) to the exact
// response bytes. The server consults the memory tier first, then each
// rung in ladder order (disk, then remote), promoting a hit into memory
// and every rung above it, and stores every solve in all of them.
// Implementations must be safe for concurrent use and must never return
// bytes other than those stored under the key: a tier that cannot
// guarantee integrity (e.g. persistent storage that may corrupt) must
// verify on read and report a miss instead.
type Tier interface {
	// Get returns the stored bytes for key and whether they were
	// present. Callers must not modify the returned slice.
	Get(key string) ([]byte, bool)
	// Put stores val under key, evicting as needed. It must not block on
	// slow media — persistence is expected to be write-behind.
	Put(key string, val []byte)
	// Close drains any write-behind queue; the server calls it once, on
	// shutdown.
	Close()
	// Stats snapshots the tier's counters.
	Stats() TierStats
}

var (
	_ Tier = (*DiskCache)(nil)
	_ Tier = (*RemoteCache)(nil)
)

// TierStats is a point-in-time snapshot of one rung's counters, shared by
// every tier below memory; a tier leaves the fields it has no use for at
// zero. Errors counts every failure the tier degraded — a corrupt entry
// refused, a network or daemon error, a dropped write-behind put — and
// never served. Each field declares its /metrics family once per rung,
// in a tag named for the rung's /statsz key.
type TierStats struct {
	// Enabled reports that the rung exists on this server.
	Enabled bool   `json:"enabled" disk:"gauge,1 when the persistent disk tier (-cache-dir) is configured." remote:"gauge,1 when a shared remote cache tier (dtcached) is configured."`
	Hits    uint64 `json:"hits" disk:"counter,Persistent disk tier hits (mirrored at item accounting)." remote:"counter,Shared remote tier hits (mirrored at item accounting)."`
	Misses  uint64 `json:"misses" disk:"counter,Persistent disk tier misses." remote:"counter,Shared remote tier misses (errors degrade to counted misses)."`
	// Writes counts entries the disk tier persisted; Puts counts results
	// the remote tier published.
	Writes    uint64 `json:"writes" disk:"counter,Entries persisted by the disk tier's write-behind writer." remote:"counter,Unused by the remote tier (it counts dtserve_remote_puts_total); always 0."`
	Puts      uint64 `json:"puts" disk:"counter,Unused by the disk tier (it counts dtserve_disk_writes_total); always 0." remote:"counter,Results published to the shared remote tier by the write-behind writer."`
	Evictions uint64 `json:"evictions" disk:"counter,Disk tier entries evicted to hold the byte budget." remote:"counter,Unused by the remote tier (dtcached evicts on its own); always 0."`
	Errors    uint64 `json:"errors" disk:"counter,Corrupt/stale entries detected and deleted, plus failed or dropped writes." remote:"counter,Remote tier failures: network/daemon errors, checksum mismatches, dropped writes — every one degraded, none served."`
	// Corrupt singles out values that failed a checksum on read.
	Corrupt  uint64 `json:"corrupt" disk:"counter,Unused by the disk tier (corrupt entries count in dtserve_disk_errors_total); always 0." remote:"counter,Remote values that failed the client-side checksum and were refused."`
	Entries  int    `json:"entries" disk:"gauge,Entries currently on disk." remote:"gauge,Unused by the remote tier (dtcached holds the entries); always 0."`
	Bytes    int64  `json:"bytes" disk:"gauge,On-disk bytes (entry headers included)." remote:"gauge,Unused by the remote tier (dtcached holds the bytes); always 0."`
	MaxBytes int64  `json:"max_bytes" disk:"gauge,Byte budget of the disk tier (-disk-cache-bytes)." remote:"gauge,Unused by the remote tier (dtcached holds the budget); always 0."`
}

// Cache is a bounded, content-addressed LRU of marshaled results. Values
// are the exact response bytes, so a hit replays a byte-identical body
// without re-marshaling (and without re-solving). Safe for concurrent use.
//
// Beside the entries the cache keeps aliases: the SHA-256 of a raw request
// body mapped to the entry that body's full decode was answered from, so
// the same bytes sent again skip the decode. An alias is a pure function
// of the bytes (every input to the key besides them is fixed when the
// server starts). It holds the entry's key, not a copy of its bytes: an
// alias whose entry was evicted answers nothing and is dropped when next
// probed, and there are never more aliases than the cache's entry bound,
// least recently used dropped first.
type Cache struct {
	mu        sync.Mutex
	max       int
	maxBytes  int64
	bytes     int64
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64

	aliasLRU *list.List // of *alias; front = most recently used
	byBody   map[[sha256.Size]byte]*list.Element
}

type cacheEntry struct {
	key string
	val []byte
}

// alias maps the SHA-256 of a request body to the key of the entry that
// answered it.
type alias struct {
	sum  [sha256.Size]byte
	key  string
	lane string // the request's QoS lane, for the request log
}

// defaultMaxBytes bounds the cache's stored-bytes footprint when the
// caller gives no byte budget: entries alone are no bound, because a
// single large-graph response runs to megabytes.
const defaultMaxBytes = 256 << 20

// NewCache returns an LRU holding at most max entries and maxBytes stored
// bytes (maxBytes <= 0 means a 256 MiB default); max <= 0 returns nil,
// which every method treats as a disabled (always-miss, never-store)
// cache.
func NewCache(max int, maxBytes int64) *Cache {
	if max <= 0 {
		return nil
	}
	if maxBytes <= 0 {
		maxBytes = defaultMaxBytes
	}
	return &Cache{max: max, maxBytes: maxBytes, ll: list.New(), items: make(map[string]*list.Element, max),
		aliasLRU: list.New(), byBody: make(map[[sha256.Size]byte]*list.Element)}
}

// Get returns the cached bytes for key and whether they were present,
// updating recency and the hit/miss counters. Callers must not modify the
// returned slice.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// Put stores val under key, evicting least recently used entries while
// either the entry or the byte bound is exceeded. Storing an existing key
// refreshes its value and recency.
func (c *Cache) Put(key string, val []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
		c.bytes += int64(len(val))
	}
	// The newest entry is never evicted, even when it alone exceeds the
	// byte budget — a result that was worth solving is worth returning.
	for c.ll.Len() > 1 && (c.ll.Len() > c.max || c.bytes > c.maxBytes) {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*cacheEntry)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.val))
		c.evictions++
	}
}

// getAlias answers a request body by its SHA-256: the bytes of the entry
// the body's alias names, that entry's key and the request's lane,
// counted as a hit. A body with no alias, whose entry was evicted (the
// alias is dropped) or whose key is in inflight (a solve under way) is a
// miss that counts nothing — the caller's full lookup counts it, once.
func (c *Cache) getAlias(sum *[sha256.Size]byte, inflight map[string]*flight) (val []byte, key, lane string, ok bool) {
	if c == nil {
		return nil, "", "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.byBody[*sum]
	if el == nil {
		return nil, "", "", false
	}
	a := el.Value.(*alias)
	target, ok := c.items[a.key]
	if !ok {
		c.dropAlias(el)
		return nil, "", "", false
	}
	if _, busy := inflight[a.key]; busy {
		return nil, "", "", false
	}
	c.hits++
	c.ll.MoveToFront(target)
	c.aliasLRU.MoveToFront(el)
	return target.Value.(*cacheEntry).val, a.key, a.lane, true
}

// putAlias names key's entry as the answer to the body hashing to sum; a
// key evicted since it answered gets no alias. At the bound the least
// recently used alias makes way.
func (c *Cache) putAlias(sum *[sha256.Size]byte, key, lane string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; !ok {
		return
	}
	if el := c.byBody[*sum]; el != nil {
		// The same bytes always decode to the same key, so the alias
		// already names it.
		c.aliasLRU.MoveToFront(el)
		return
	}
	if c.aliasLRU.Len() >= c.max {
		c.dropAlias(c.aliasLRU.Back())
	}
	c.byBody[*sum] = c.aliasLRU.PushFront(&alias{sum: *sum, key: key, lane: lane})
}

func (c *Cache) dropAlias(el *list.Element) {
	delete(c.byBody, c.aliasLRU.Remove(el).(*alias).sum)
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits      uint64 `json:"hits" metric:"counter,Result cache hits (mirrored at item accounting, so hits+misses may momentarily trail the tier's own probe count)."`
	Misses    uint64 `json:"misses" metric:"counter,Result cache misses."`
	Evictions uint64 `json:"evictions" metric:"counter,Result cache evictions."`
	Entries   int    `json:"entries" metric:"gauge,Entries currently cached."`
	Max       int    `json:"max" metric:"gauge,Entry bound of the result cache (-cache)."`
	Bytes     int64  `json:"bytes" metric:"gauge,Bytes of response bodies currently cached."`
	MaxBytes  int64  `json:"max_bytes" metric:"gauge,Byte bound of the result cache (-cache-bytes)."`
	// Aliases counts the request-body aliases held, at most Max; an
	// alias whose entry was evicted is counted until it is next probed
	// or the bound drops it.
	Aliases int `json:"aliases" metric:"gauge,Request-body aliases held by the memory tier (at most dtserve_cache_max)."`
}

// Stats returns the current counters (zero-valued for a disabled cache).
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Max:       c.max,
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		Aliases:   len(c.byBody),
	}
}
