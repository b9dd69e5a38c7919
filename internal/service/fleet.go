package service

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/proxy"
	"repro/internal/remotecache"
)

// FleetConfig drives RunFleet: an in-process replica fleet — one shared
// dtcached daemon, N dtserve replicas pointed at it, and a dtproxy
// routing front — all on loopback listeners. It exists so tests (and
// benchmarks) can prove fleet-wide properties without shelling out
// to binaries: fleet-wide singleflight, cross-replica remote hits, the
// extended conservation law on every replica, and proxy
// ejection/readmission when a replica dies.
type FleetConfig struct {
	// Replicas is the dtserve replica count; <= 0 means 2.
	Replicas int
	// Server is the per-replica base config. RemoteAddr is overwritten to
	// point at the fleet's own dtcached; everything else is applied as
	// given to every replica.
	Server Config
	// Proxy is the routing-front config. Replicas is overwritten with the
	// fleet's replica URLs. Tests that assert exact solve counts should
	// set HedgeDelay < 0 — a fired hedge can duplicate a cold solve by
	// design.
	Proxy proxy.Config
	// CachedMaxBytes is the shared daemon's value-byte budget; <= 0 means
	// the remotecache default (256 MiB).
	CachedMaxBytes int64
}

// FleetReplica is one dtserve member of an in-process fleet. Server
// stays warm across StopReplica/RestartReplica — only the HTTP listener
// dies, which is exactly what a crashed-then-restarted process looks
// like to the proxy while keeping counters inspectable.
type FleetReplica struct {
	Server *Server
	URL    string

	addr    string // pinned loopback addr so a restart rebinds the same port
	httpSrv *http.Server
	ln      net.Listener
}

// Fleet is a running in-process fleet. Route traffic at ProxyURL; poke
// individual replicas at Replicas[i].URL; stop everything with Close.
type Fleet struct {
	Cached     *remotecache.Server
	CachedAddr string
	Replicas   []*FleetReplica
	Proxy      *proxy.Proxy
	ProxyURL   string

	proxySrv *http.Server
	proxyLn  net.Listener
}

// RunFleet starts the daemon, the replicas and the proxy, in that order,
// each on an OS-assigned loopback port. On error everything already
// started is torn down.
func RunFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	f := &Fleet{}

	cachedLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fleet: dtcached listen: %w", err)
	}
	f.Cached = remotecache.NewServer(remotecache.ServerConfig{MaxBytes: cfg.CachedMaxBytes})
	f.CachedAddr = cachedLn.Addr().String()
	go f.Cached.Serve(cachedLn)

	urls := make([]string, 0, cfg.Replicas)
	for i := 0; i < cfg.Replicas; i++ {
		rcfg := cfg.Server
		rcfg.RemoteAddr = f.CachedAddr
		svc, err := New(rcfg)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: replica %d: %w", i, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			svc.Close()
			f.Close()
			return nil, fmt.Errorf("fleet: replica %d listen: %w", i, err)
		}
		rep := &FleetReplica{
			Server:  svc,
			addr:    ln.Addr().String(),
			URL:     "http://" + ln.Addr().String(),
			ln:      ln,
			httpSrv: &http.Server{Handler: svc.Handler()},
		}
		go rep.httpSrv.Serve(ln)
		f.Replicas = append(f.Replicas, rep)
		urls = append(urls, rep.URL)
	}

	pcfg := cfg.Proxy
	pcfg.Replicas = urls
	p, err := proxy.New(pcfg)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: proxy: %w", err)
	}
	f.Proxy = p
	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: proxy listen: %w", err)
	}
	f.proxyLn = proxyLn
	f.ProxyURL = "http://" + proxyLn.Addr().String()
	f.proxySrv = &http.Server{Handler: p.Handler()}
	go f.proxySrv.Serve(proxyLn)
	return f, nil
}

// StopReplica kills replica i's HTTP front — in-flight and future
// connections fail with transport errors, exactly like a crashed
// process — while its Server (and counters) stay warm for inspection
// and a later RestartReplica.
func (f *Fleet) StopReplica(i int) error {
	rep := f.Replicas[i]
	if rep.httpSrv == nil {
		return nil
	}
	err := rep.httpSrv.Close()
	rep.httpSrv = nil
	rep.ln = nil
	return err
}

// RestartReplica rebinds replica i's pinned address and serves again, so
// the proxy's health probes can readmit it. The port was OS-assigned at
// RunFleet but is ours again immediately on loopback; a straggling
// TIME_WAIT gets a short retry.
func (f *Fleet) RestartReplica(i int) error {
	rep := f.Replicas[i]
	if rep.httpSrv != nil {
		return nil
	}
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = net.Listen("tcp", rep.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("fleet: rebind %s: %w", rep.addr, err)
	}
	rep.ln = ln
	rep.httpSrv = &http.Server{Handler: rep.Server.Handler()}
	go rep.httpSrv.Serve(ln)
	return nil
}

// Close tears the fleet down front to back: proxy, replicas, daemon.
func (f *Fleet) Close() {
	if f.proxySrv != nil {
		f.proxySrv.Close()
	}
	if f.Proxy != nil {
		f.Proxy.Close()
	}
	for _, rep := range f.Replicas {
		if rep.httpSrv != nil {
			rep.httpSrv.Close()
		}
		rep.Server.Close()
	}
	if f.Cached != nil {
		f.Cached.Close()
	}
}

// CheckLaw verifies the conservation law
//
//	solves + cache.hits + Σ rung hits + coalesced == schedule_items
//
// (the rungs are disk and remote; an absent rung's hits are zero)
// against one replica's stats snapshot, returning a descriptive error on
// violation. Fleet tests run it on every replica.
func CheckLaw(st Stats) error {
	sum := st.Solves + st.Cache.Hits + st.Disk.Hits + st.Remote.Hits + st.Coalesced
	if sum != st.Items {
		return fmt.Errorf(
			"conservation law violated: solves %d + mem %d + disk %d + remote %d + coalesced %d = %d != items %d",
			st.Solves, st.Cache.Hits, st.Disk.Hits, st.Remote.Hits, st.Coalesced, sum, st.Items)
	}
	return nil
}

// FleetStats aggregates the per-replica snapshots a fleet assertion
// usually wants in one place.
type FleetStats struct {
	Solves     uint64
	Items      uint64
	MemHits    uint64
	DiskHits   uint64
	RemoteHits uint64
	Coalesced  uint64
	PerReplica []Stats
}

// Stats snapshots every replica and sums the law's terms fleet-wide.
func (f *Fleet) Stats() FleetStats {
	var fs FleetStats
	for _, rep := range f.Replicas {
		st := rep.Server.Stats()
		fs.PerReplica = append(fs.PerReplica, st)
		fs.Solves += st.Solves
		fs.Items += st.Items
		fs.MemHits += st.Cache.Hits
		fs.DiskHits += st.Disk.Hits
		fs.RemoteHits += st.Remote.Hits
		fs.Coalesced += st.Coalesced
	}
	return fs
}

// trimURL is a tiny helper shared by fleet consumers that compare
// replica URLs from headers against FleetReplica.URL.
func trimURL(u string) string { return strings.TrimRight(u, "/") }
