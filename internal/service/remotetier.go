package service

import (
	"sync"
	"time"

	"repro/internal/remotecache"
)

// remoteWriteQueue bounds the write-behind backlog, same contract as the
// disk tier: a full queue drops the write (counted in Errors) instead of
// stalling a solve.
const remoteWriteQueue = 256

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

	mu     sync.Mutex
	stats  TierStats
	closed bool

	jobs chan remoteWrite
	wg   sync.WaitGroup
}

type remoteWrite struct {
	key string
	val []byte
}

// NewRemoteCache returns a remote tier talking to the dtcached daemon at
// addr. No connection is made until the first op, so a daemon that is
// down at startup costs nothing until the ladder consults it (and then
// costs one counted error per consult).
func NewRemoteCache(addr string, timeout time.Duration) *RemoteCache {
	r := &RemoteCache{
		client: remotecache.NewClient(remotecache.ClientConfig{Addr: addr, Timeout: timeout}),
		jobs:   make(chan remoteWrite, remoteWriteQueue),
	}
	r.wg.Add(1)
	go r.writer()
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
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	select {
	case r.jobs <- remoteWrite{key: key, val: val}:
	default:
		r.stats.Errors++ // backlogged writer: best-effort tier drops the write
	}
}

func (r *RemoteCache) writer() {
	defer r.wg.Done()
	for job := range r.jobs {
		err := r.client.Put(job.key, job.val)
		r.mu.Lock()
		if err != nil {
			r.stats.Errors++
		} else {
			r.stats.Puts++
		}
		r.mu.Unlock()
	}
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
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.jobs)
	r.wg.Wait()
	r.client.Close()
}
