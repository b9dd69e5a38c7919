package service

import "sync"

// writeBehindQueue bounds a rung's write-behind backlog: a full queue
// drops the write (the rung counts it in Errors) instead of stalling a
// solve — the tier is a cache, not a log.
const writeBehindQueue = 256

// writeBehind is the write-behind queue of the rungs below memory: put
// returns at once, and one writer goroutine hands every queued write, in
// order, to the store function newWriteBehind was given, off the solve
// hot path.
type writeBehind struct {
	jobs chan tierWrite
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

type tierWrite struct {
	key string
	val []byte
}

func newWriteBehind(store func(key string, val []byte)) *writeBehind {
	w := &writeBehind{jobs: make(chan tierWrite, writeBehindQueue)}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for job := range w.jobs {
			store(job.key, job.val)
		}
	}()
	return w
}

// put queues one write and reports whether it was dropped because the
// queue was full, which the rung counts as an error. A put after close is
// dropped without being reported: shutdown refused it, not a backlog.
func (w *writeBehind) put(key string, val []byte) (overflow bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	select {
	case w.jobs <- tierWrite{key: key, val: val}:
		return false
	default:
		return true
	}
}

// close drains the queue and stops the writer: when it returns, store
// has been offered every write put accepted. close is idempotent.
func (w *writeBehind) close() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.jobs)
	}
	w.mu.Unlock()
	w.wg.Wait()
}
