package remotecache

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"repro/internal/lru"
)

// ServerConfig tunes the daemon. The zero value is usable.
type ServerConfig struct {
	// MaxBytes is the value-byte budget; least-recently-used entries are
	// evicted past it. <= 0 means 256 MiB.
	MaxBytes int64
	// IdleTimeout closes connections with no frame activity. <= 0 means
	// 5 minutes.
	IdleTimeout time.Duration
	// Logger receives structured connection/error logs; nil discards.
	Logger *slog.Logger
}

// ServerStats is a point-in-time snapshot of daemon counters, also
// returned over the wire for an OpStats frame.
type ServerStats struct {
	Gets      uint64 `json:"gets"`
	Puts      uint64 `json:"puts"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	BadFrames uint64 `json:"bad_frames"`
	Conns     uint64 `json:"conns"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
}

// Server is the dtcached daemon: a byte-budgeted LRU of opaque sealed
// values behind the frame protocol. One goroutine serves each
// connection; the store is a single mutex-guarded LRU, which at
// cache-value sizes is dominated by network time.
type Server struct {
	cfg ServerConfig

	mu    sync.Mutex
	store *lru.LRU[string, []byte]
	stats ServerStats

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	ln     net.Listener
	closed bool

	wg sync.WaitGroup
}

// NewServer returns an idle daemon; pair with Serve or ListenAndServe.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 256 << 20
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	s := &Server{cfg: cfg, conns: make(map[net.Conn]struct{})}
	s.store = lru.New(0, cfg.MaxBytes, func(string, []byte) { s.stats.Evictions++ })
	return s
}

// ListenAndServe binds addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr reports the bound listen address, or "" before Serve.
func (s *Server) Addr() string {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections on ln until Close. It returns nil after a
// Close-initiated shutdown, or the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		ln.Close()
		return errors.New("remotecache: server closed")
	}
	s.ln = ln
	s.connMu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.connMu.Lock()
			closed := s.closed
			s.connMu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.mu.Lock()
		s.stats.Conns++
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops accepting, severs live connections and waits for their
// goroutines. Cache gets are sub-millisecond, so hard-closing is the
// clean drain: no frame is left half-written because each response is
// one Write call.
func (s *Server) Close() error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Stats snapshots the counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.store.Len()
	st.Bytes = s.store.Bytes()
	st.MaxBytes = s.cfg.MaxBytes
	return st
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
	}()

	var out []byte
	for {
		conn.SetDeadline(time.Now().Add(s.cfg.IdleTimeout))
		op, key, val, err := ReadRequest(conn)
		if err != nil {
			if errors.Is(err, ErrFrame) {
				// Protocol violation: answer with a structured error so a
				// confused client sees why, then drop the connection —
				// framing is unrecoverable once misaligned.
				s.mu.Lock()
				s.stats.BadFrames++
				s.mu.Unlock()
				out, _ = AppendResponse(out[:0], StatusError, []byte(err.Error()))
				conn.Write(out)
				if l := s.cfg.Logger; l != nil {
					l.Warn("remotecache bad frame", "remote", conn.RemoteAddr().String(), "err", err)
				}
			} else if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				if l := s.cfg.Logger; l != nil {
					l.Debug("remotecache conn read", "remote", conn.RemoteAddr().String(), "err", err)
				}
			}
			return
		}

		switch op {
		case OpGet:
			if v, ok := s.get(key); ok {
				out, _ = AppendResponse(out[:0], StatusHit, v)
			} else {
				out, _ = AppendResponse(out[:0], StatusMiss, nil)
			}
		case OpPut:
			s.put(key, val)
			out, _ = AppendResponse(out[:0], StatusOK, nil)
		case OpStats:
			body, err := json.Marshal(s.Stats())
			if err != nil {
				out, _ = AppendResponse(out[:0], StatusError, []byte(err.Error()))
			} else {
				out, _ = AppendResponse(out[:0], StatusStats, body)
			}
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

func (s *Server) get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Gets++
	val, ok := s.store.Get(key)
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	s.stats.Hits++
	return val, true
}

func (s *Server) put(key string, val []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Puts++
	if _, ok := s.store.Get(key); ok {
		// Content-addressed values are immutable; a re-put just refreshes
		// recency (and tolerates a differing value from a buggy writer by
		// keeping the incumbent — first write wins, like the disk tier).
		return
	}
	s.store.Put(key, val, int64(len(val)))
}
