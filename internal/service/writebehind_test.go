package service

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/remotecache"
)

// gatedListener hands out connections whose reads wait for release, so a
// dtcached daemon behind it stalls the remote rung's writer mid round
// trip. started closes at the first read.
type gatedListener struct {
	net.Listener
	started, release chan struct{}
	once             sync.Once
}

func (l *gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, l: l}, nil
}

type gatedConn struct {
	net.Conn
	l *gatedListener
}

func (c *gatedConn) Read(p []byte) (int, error) {
	c.l.once.Do(func() { close(c.l.started) })
	<-c.l.release
	return c.Conn.Read(p)
}

// TestWriteBehindRules holds both rungs below memory to the write-behind
// contract, with each rung's writer stalled inside its first store: a put
// beyond the full queue is dropped and counted as one error, Close offers
// every accepted put to the store, and a put after Close is dropped
// without being counted.
func TestWriteBehindRules(t *testing.T) {
	rungs := []struct {
		name string
		// open returns the rung, a channel that closes once its writer
		// is blocked in the first store, the channel that unblocks it,
		// and a count of the entries the store holds.
		open func(t *testing.T) (tier Tier, started, release chan struct{}, stored func() int)
	}{
		{"disk", func(t *testing.T) (Tier, chan struct{}, chan struct{}, func() int) {
			started, release := make(chan struct{}), make(chan struct{})
			d := newDisk(t, t.TempDir(), 0)
			var once sync.Once
			d.SetWriteObserver(func(time.Duration) {
				once.Do(func() { close(started) })
				<-release
			})
			return d, started, release, func() int { return d.Stats().Entries }
		}},
		{"remote", func(t *testing.T) (Tier, chan struct{}, chan struct{}, func() int) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			gl := &gatedListener{Listener: ln, started: make(chan struct{}), release: make(chan struct{})}
			cached := remotecache.NewServer(remotecache.ServerConfig{})
			go cached.Serve(gl)
			t.Cleanup(func() { cached.Close() })
			r := NewRemoteCache(ln.Addr().String(), 30*time.Second)
			t.Cleanup(r.Close)
			return r, gl.started, gl.release, func() int { return cached.Stats().Entries }
		}},
	}
	for _, rung := range rungs {
		t.Run(rung.name, func(t *testing.T) {
			tier, started, release, stored := rung.open(t)
			var once sync.Once
			unblock := func() { once.Do(func() { close(release) }) }
			t.Cleanup(unblock) // before the rung's own Close cleanup, which drains
			val := []byte("body")
			tier.Put("ab00", val)
			<-started
			for i := 1; i <= writeBehindQueue; i++ {
				tier.Put(fmt.Sprintf("ab%02x", i), val)
			}
			if st := tier.Stats(); st.Errors != 0 {
				t.Fatalf("the queue's %d slots dropped a put: %+v", writeBehindQueue, st)
			}
			tier.Put("overflow", val)
			if st := tier.Stats(); st.Errors != 1 {
				t.Fatalf("a put beyond the full queue counted %d errors, want 1", st.Errors)
			}
			unblock()
			tier.Close()
			accepted := writeBehindQueue + 1
			st := tier.Stats()
			if done := st.Writes; done != uint64(accepted) {
				t.Fatalf("Close left %d of %d accepted puts unstored: %+v", uint64(accepted)-done, accepted, st)
			}
			if n := stored(); n != accepted {
				t.Fatalf("the store holds %d entries, want %d", n, accepted)
			}
			tier.Put("late", val)
			if after := tier.Stats(); after != st {
				t.Fatalf("a put after Close changed the counters: %+v, then %+v", st, after)
			}
			if n := stored(); n != accepted {
				t.Fatalf("a put after Close reached the store: %d entries, want %d", n, accepted)
			}
		})
	}
}
