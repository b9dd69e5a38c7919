package service

import (
	"sync"
	"time"

	"repro/internal/remotecache"
)

// RemoteCache is the replica-side remote tier: a thin accounting layer
// over the remotecache client. Gets are synchronous (the caller is the
// flight leader, already off every other request's path); Puts are
// write-behind on a single writer goroutine. All failures degrade: a
// remote tier outage makes every consult a counted miss and the ladder
// falls through to the local solve. Every failure mode — network error,
// daemon error reply, checksum mismatch, dropped write-behind put —
// lands in Errors (Corrupt additionally singles out checksum failures).
type RemoteCache struct {
	client *remotecache.Client

	mu    sync.Mutex
	stats TierStats

	queue *writeBehind
}

// NewRemoteCache returns a remote tier talking to the dtcached daemon at
// addr. No connection is made until the first op, so a daemon that is
// down at startup costs nothing until the ladder consults it (and then
// costs one counted error per consult).
func NewRemoteCache(addr string, timeout time.Duration) *RemoteCache {
	r := &RemoteCache{client: remotecache.NewClient(remotecache.ClientConfig{Addr: addr, Timeout: timeout})}
	r.queue = newWriteBehind(r.publish)
	return r
}

// Get consults the daemon. Corrupt or truncated values fail the client's
// seal check and come back as counted misses — never served.
func (r *RemoteCache) Get(key string) ([]byte, bool) {
	body, ok, err := r.client.Get(key)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.stats.Errors++
		if err == remotecache.ErrCorrupt {
			r.stats.Corrupt++
		}
		r.stats.Misses++
		return nil, false
	}
	if !ok {
		r.stats.Misses++
		return nil, false
	}
	r.stats.Hits++
	return body, true
}

// Put schedules val to be stored under key and returns immediately; the
// writer goroutine performs the round trip off the solve hot path. A
// full queue or closed tier drops the write.
func (r *RemoteCache) Put(key string, val []byte) {
	if r.queue.put(key, val) {
		r.mu.Lock()
		r.stats.Errors++
		r.mu.Unlock()
	}
}

// publish is the writer goroutine's round trip for one queued Put.
func (r *RemoteCache) publish(key string, val []byte) {
	err := r.client.Put(key, val)
	r.mu.Lock()
	if err != nil {
		r.stats.Errors++
	} else {
		r.stats.Writes++
	}
	r.mu.Unlock()
}

// Stats returns the current counters.
func (r *RemoteCache) Stats() TierStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Close drains the write-behind queue and drops pooled connections:
// after Close returns, every accepted Put has been offered to the daemon
// (successfully or as a counted error). Idempotent.
func (r *RemoteCache) Close() {
	r.queue.close()
	r.client.Close()
}
