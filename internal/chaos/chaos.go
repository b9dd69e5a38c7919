// Package chaos is the fault-injection harness for the scheduling
// service: it wraps the rungs of the service's cache ladder (the
// persistent disk tier and the fleet-shared remote tier) and any solver
// with deterministic, seeded fault injectors, so tests — and a dtserve
// operator via the -chaos flag — can prove the service degrades
// gracefully instead of hoping it does.
//
// The harness is plain Go behind public seams (service.Config.WrapTier
// for the rungs, solver.Register for the flaky solver); no build tags, so
// the injection code itself is compiled and vetted on every build and the
// production binary pays a single nil-check when chaos is off.
//
// Invariants the service must keep under any injected fault:
//
//   - a rung's read fault degrades to a miss at that rung: the request
//     falls through to the next rung, or to a solve, and answers 200 with
//     byte-identical results;
//   - injected faults surface in that rung's Errors counter, so
//     operators see the failure rate in /statsz and /metrics;
//   - the conservation law solves + cache.hits + Σ rung hits + coalesced
//     == schedule_items holds, fault or no fault;
//   - a flaky solver failure is an ordinary structured error to exactly
//     the requests it hit — never a panic, never a poisoned cache entry.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/machsim"
	"repro/internal/service"
	"repro/internal/solver"
)

// ErrInjected marks every fault this package injects, so tests and error
// chains can tell injected failures from organic ones (errors.Is).
var ErrInjected = errors.New("chaos: injected fault")

// Config tunes the injectors. Rates are probabilities in [0, 1]; delays
// are added before the wrapped call (and honor context cancellation in
// the solver wrapper). The zero value injects nothing.
type Config struct {
	// Seed makes every probabilistic decision reproducible: equal seeds
	// and equal call sequences inject equal faults.
	Seed int64
	// DiskErrRate is the probability a disk-tier Get or Put is faulted:
	// a faulted Get reports a miss, a faulted Put drops the write. Both
	// are counted in the tier's Errors.
	DiskErrRate float64
	// DiskDelay is added to every disk-tier Get, modeling a slow disk.
	DiskDelay time.Duration
	// RemoteErrRate is the probability a remote-tier Get or Put is
	// faulted, modeling a flaky dtcached daemon or network: a faulted Get
	// reports a miss, a faulted Put drops the publish. Both are counted
	// in the tier's Errors.
	RemoteErrRate float64
	// RemoteDelay is added to every remote-tier Get, modeling a slow or
	// distant daemon.
	RemoteDelay time.Duration
	// SolverErrRate is the probability a wrapped solver's Solve fails
	// with an ErrInjected-wrapped error.
	SolverErrRate float64
	// SolverDelay is added before every wrapped solve (cancellable).
	SolverDelay time.Duration
	// SolverJitter spreads SolverDelay uniformly over
	// [delay*(1-j), delay*(1+j)], drawn from the seeded PRNG. Without
	// it a fixed delay marches every pool worker in lockstep — all
	// solves complete simultaneously forever — which no real slow
	// dependency does. In [0, 1]; 0 keeps the delay exact.
	SolverJitter float64
}

// ParseSpec parses the dtserve -chaos flag syntax: comma-separated
// key=value pairs, e.g.
//
//	disk-err=0.2,disk-delay=5ms,solver-err=0.1,solver-delay=1ms,seed=7
//
// Unknown keys, malformed values and out-of-range rates are errors.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, fmt.Errorf("chaos: empty spec")
	}
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return cfg, fmt.Errorf("chaos: field %q is not key=value", field)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("chaos: seed %q: %v", v, err)
			}
			cfg.Seed = n
		case "disk-err", "remote-err", "solver-err", "solver-jitter":
			r, err := strconv.ParseFloat(v, 64)
			if err != nil || !(r >= 0 && r <= 1) { // NaN fails both comparisons
				return cfg, fmt.Errorf("chaos: rate %s=%q out of [0,1]", k, v)
			}
			switch k {
			case "disk-err":
				cfg.DiskErrRate = r
			case "remote-err":
				cfg.RemoteErrRate = r
			case "solver-err":
				cfg.SolverErrRate = r
			case "solver-jitter":
				cfg.SolverJitter = r
			}
		case "disk-delay", "remote-delay", "solver-delay":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return cfg, fmt.Errorf("chaos: delay %s=%q: want a non-negative duration", k, v)
			}
			switch k {
			case "disk-delay":
				cfg.DiskDelay = d
			case "remote-delay":
				cfg.RemoteDelay = d
			default:
				cfg.SolverDelay = d
			}
		default:
			return cfg, fmt.Errorf("chaos: unknown key %q (want seed, disk-err, disk-delay, remote-err, remote-delay, solver-err, solver-delay, solver-jitter)", k)
		}
	}
	return cfg, nil
}

// roller is a mutex-guarded seeded PRNG shared by the injectors.
type roller struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newRoller(seed int64) *roller {
	return &roller{rng: rand.New(rand.NewSource(seed))}
}

// roll reports whether a fault at the given rate fires.
func (r *roller) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64() < rate
}

// uniform draws from [0, 1).
func (r *roller) uniform() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64()
}

// tierFaults returns the error rate and read delay cfg arms for the named
// ladder rung: the disk-* keys for "disk", the remote-* keys for
// "remote", nothing for any other name.
func (c Config) tierFaults(name string) (float64, time.Duration) {
	switch name {
	case "disk":
		return c.DiskErrRate, c.DiskDelay
	case "remote":
		return c.RemoteErrRate, c.RemoteDelay
	}
	return 0, 0
}

// WrapTier returns a service.Config.WrapTier seam that wraps every
// configured rung cfg arms faults for in a Tier and passes the others
// through unchanged — an unconfigured (nil) rung stays absent.
func WrapTier(cfg Config) func(name string, under service.Tier) service.Tier {
	return func(name string, under service.Tier) service.Tier {
		if rate, delay := cfg.tierFaults(name); under == nil || (rate == 0 && delay == 0) {
			return under
		}
		return NewTier(name, under, cfg)
	}
}

// Tier wraps one rung of the service's cache ladder with fault injection,
// at the error rate and delay cfg arms for the rung's name. A faulted Get
// reports a miss (the service then falls through to the next rung or a
// solve — graceful degradation, not an error surface); a faulted Put
// drops the write. Both are folded into the wrapped tier's Errors stat so
// the injected failure rate is visible wherever that rung's errors
// already are.
type Tier struct {
	under service.Tier
	rate  float64
	delay time.Duration
	roll  *roller

	mu        sync.Mutex
	getFaults uint64
	putFaults uint64
}

// NewTier wraps under, the rung called name, with fault injection per cfg.
func NewTier(name string, under service.Tier, cfg Config) *Tier {
	rate, delay := cfg.tierFaults(name)
	return &Tier{under: under, rate: rate, delay: delay, roll: newRoller(cfg.Seed)}
}

// Get consults the wrapped tier, injecting latency and faults.
func (t *Tier) Get(key string) ([]byte, bool) {
	if t.delay > 0 {
		time.Sleep(t.delay)
	}
	if t.roll.roll(t.rate) {
		t.mu.Lock()
		t.getFaults++
		t.mu.Unlock()
		return nil, false
	}
	return t.under.Get(key)
}

// Put forwards to the wrapped tier unless a write fault fires.
func (t *Tier) Put(key string, val []byte) {
	if t.roll.roll(t.rate) {
		t.mu.Lock()
		t.putFaults++
		t.mu.Unlock()
		return
	}
	t.under.Put(key, val)
}

// Stats reports the wrapped tier's stats with the injected faults folded
// in: every fault is an error, and a faulted read is also a miss (that is
// exactly how the service experienced it).
func (t *Tier) Stats() service.TierStats {
	st := t.under.Stats()
	t.mu.Lock()
	defer t.mu.Unlock()
	st.Errors += t.getFaults + t.putFaults
	st.Misses += t.getFaults
	return st
}

// Close closes the wrapped tier.
func (t *Tier) Close() { t.under.Close() }

// Injected returns the injected read and write fault counts.
func (t *Tier) Injected() (gets, puts uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.getFaults, t.putFaults
}

// FlakySolver wraps a solver with seeded failure injection: each Solve
// first waits out SolverDelay (honoring ctx), then either fails with an
// ErrInjected-wrapped error or delegates to the wrapped solver.
type FlakySolver struct {
	name  string
	under solver.Solver
	cfg   Config
	roll  *roller

	mu       sync.Mutex
	injected uint64
}

// NewFlakySolver builds a registerable flaky wrapper around under. The
// name must be unique in the solver registry (and lower-case).
func NewFlakySolver(name string, under solver.Solver, cfg Config) *FlakySolver {
	return &FlakySolver{name: name, under: under, cfg: cfg, roll: newRoller(cfg.Seed)}
}

// Name implements solver.Solver.
func (f *FlakySolver) Name() string { return f.name }

// Description implements solver.Solver.
func (f *FlakySolver) Description() string {
	return fmt.Sprintf("chaos wrapper around %q (err-rate %g, delay %s)",
		f.under.Name(), f.cfg.SolverErrRate, f.cfg.SolverDelay)
}

// Solve implements solver.Solver with fault injection.
func (f *FlakySolver) Solve(ctx context.Context, req solver.Request) (*machsim.Result, error) {
	if f.cfg.SolverDelay > 0 {
		delay := f.cfg.SolverDelay
		if j := f.cfg.SolverJitter; j > 0 {
			delay = time.Duration((1 - j + 2*j*f.roll.uniform()) * float64(delay))
		}
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
	if f.roll.roll(f.cfg.SolverErrRate) {
		f.mu.Lock()
		f.injected++
		f.mu.Unlock()
		return nil, fmt.Errorf("%w: solver %q failed", ErrInjected, f.name)
	}
	return f.under.Solve(ctx, req)
}

// Injected returns how many solves were failed by injection.
func (f *FlakySolver) Injected() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}
