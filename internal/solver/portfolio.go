package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machsim"
	"repro/internal/obs"
)

// PortfolioMembers are the solvers the portfolio races, in tie-breaking
// order: on equal makespans the earlier member wins, so the result for a
// fixed request is deterministic regardless of goroutine interleaving.
// "optimal" only participates when the request is eligible for it.
var PortfolioMembers = []string{"sa", "etf", "hlfcomm", "hlf", "optimal"}

// PortfolioOptions tunes the portfolio race per request
// (Request.Portfolio). The zero value keeps the defaults.
type PortfolioOptions struct {
	// MemberTimeout bounds every member's solve individually, on top of
	// the shared request deadline: a member that exceeds its budget is
	// cancelled without dooming the whole race. 0 means no per-member
	// deadline. Which members beat their budget is a wall-clock fact, so
	// a race decided by a member timeout is flagged Result.Raced (and
	// therefore never cached by the service).
	MemberTimeout time.Duration
	// DisablePruning turns off incumbent-bound cancellation: by default a
	// running member whose simulation clock — a monotone lower bound on
	// its final makespan — strictly exceeds the best completed member's
	// makespan is cancelled, since it can no longer win.
	DisablePruning bool
}

// ErrPruned is the cause reported by a portfolio member cancelled mid-run
// because its own makespan lower bound exceeded the incumbent best.
var ErrPruned = errors.New("solver: portfolio member pruned by incumbent bound")

// portfolioSolver races the member solvers concurrently under the shared
// request context and returns the best (lowest finish time) completed
// result. Members that error — including those cancelled by a deadline or
// pruned by the incumbent bound — are skipped; the call only fails when
// every member fails.
//
// Early cancellation, whole-field: the makespan of any schedule is bounded
// below by max(critical path, total work / processors) over the taskgraph.
// As soon as one member completes at that bound its makespan cannot be
// beaten, so the remaining members are cancelled through their contexts
// instead of running out the deadline.
//
// Early cancellation, per-member: a running member's simulation clock only
// advances, so it is a lower bound on that member's final makespan. Once
// it strictly exceeds the incumbent best completed makespan the member
// cannot win — not even on the index tie-break, which requires equality —
// and is cancelled through the one Stop hook every member's simulator (and
// the SA member's stage barrier) polls. A member feeds the incumbent once,
// when its solve returns. Pruning therefore never changes which schedule
// wins; but whether a doomed member is pruned or finishes is a wall-clock
// fact, so pruned races carry Result.Raced and Result.Pruned — the service
// serves them but never caches them (the same rule deadline-raced
// portfolio results already follow).
type portfolioSolver struct{}

func (portfolioSolver) Name() string { return "portfolio" }

func (portfolioSolver) Description() string {
	return fmt.Sprintf("races %s concurrently under the request deadline, cancelling members that reach the graph's lower bound or fall behind the incumbent best, and returns the best finish time",
		strings.Join(PortfolioMembers, ", "))
}

// incumbent is the best completed makespan of the race so far, shared
// between member goroutines as atomic float bits.
type incumbent struct {
	bits atomic.Uint64
}

func (inc *incumbent) init() { inc.bits.Store(math.Float64bits(math.Inf(1))) }

func (inc *incumbent) best() float64 { return math.Float64frombits(inc.bits.Load()) }

// offer lowers the incumbent to m if m is better (CAS-min) and reports
// whether it actually tightened the bound.
func (inc *incumbent) offer(m float64) bool {
	for {
		old := inc.bits.Load()
		if m >= math.Float64frombits(old) {
			return false
		}
		if inc.bits.CompareAndSwap(old, math.Float64bits(m)) {
			return true
		}
	}
}

func (portfolioSolver) Solve(ctx context.Context, req Request) (*machsim.Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	members := make([]Solver, 0, len(PortfolioMembers))
	for _, name := range PortfolioMembers {
		if name == "optimal" {
			if (optimalSolver{}).Eligible(req) != nil {
				continue
			}
		}
		s, err := Get(name)
		if err != nil {
			return nil, err
		}
		members = append(members, s)
	}

	// Members race concurrently: they must not share the caller's arena
	// or scheduler.
	mreq := req
	mreq.Arena = nil
	mreq.Sched = nil
	popt := req.Portfolio

	lb, lbErr := req.Graph.LowerBoundMakespan(req.Topo.N())
	// The race's trace writes are the portfolio's alone: member contexts
	// are stripped so racing goroutines cannot interleave annotations —
	// their runs come back as per-member sub-stages recorded below.
	tr := obs.FromContext(ctx)
	cctx, cancel := context.WithCancel(obs.With(ctx, nil))
	defer cancel()

	var inc incumbent
	inc.init()
	if !popt.DisablePruning {
		// Every member polls one pruning hook. The simulation clock is a
		// monotone lower bound on a member's final makespan; strictly past
		// the incumbent it cannot win, not even on the equality tie-break.
		mreq.Sim.Stop = func(now float64) error {
			if now > inc.best() {
				return ErrPruned
			}
			return nil
		}
	}
	var raced atomic.Bool
	var boundUpdates atomic.Int64
	results := make([]*machsim.Result, len(members))
	errs := make([]error, len(members))
	starts := make([]time.Time, len(members))
	walls := make([]time.Duration, len(members))
	outcomes := make([]string, len(members))
	var wg sync.WaitGroup
	for i, s := range members {
		wg.Add(1)
		go func(i int, s Solver) {
			defer wg.Done()
			mctx := cctx
			if popt.MemberTimeout > 0 {
				var mcancel context.CancelFunc
				mctx, mcancel = context.WithTimeout(cctx, popt.MemberTimeout)
				defer mcancel()
			}
			starts[i] = time.Now()
			results[i], errs[i] = s.Solve(mctx, mreq)
			walls[i] = time.Since(starts[i])
			if errs[i] != nil {
				switch {
				case errors.Is(errs[i], ErrPruned):
					outcomes[i] = "pruned"
				case popt.MemberTimeout > 0 && errors.Is(errs[i], context.DeadlineExceeded) && cctx.Err() == nil:
					// This member lost to its own budget, not the shared
					// deadline: a wall-clock verdict, so the race is tainted.
					raced.Store(true)
					outcomes[i] = "timeout"
				case errors.Is(errs[i], context.Canceled) || errors.Is(errs[i], context.DeadlineExceeded):
					outcomes[i] = "cancelled"
				default:
					outcomes[i] = "error"
				}
				return
			}
			outcomes[i] = "finish"
			// A finished member is the incumbent's only feed.
			if inc.offer(results[i].Makespan) {
				boundUpdates.Add(1)
			}
			if lbErr == nil && results[i].Makespan <= lb+1e-9 {
				// Store before cancel: anyone observing the cancellation
				// also sees that an early cancel (not the deadline) fired.
				raced.Store(true)
				cancel()
			}
		}(i, s)
	}
	wg.Wait()

	pruned := 0
	for _, err := range errs {
		if errors.Is(err, ErrPruned) {
			pruned++
		}
	}

	best := -1
	for i, res := range results {
		if res == nil {
			continue
		}
		if best < 0 || res.Makespan < results[best].Makespan {
			best = i
		}
	}
	if best >= 0 {
		outcomes[best] = "win"
	}
	stats := make([]machsim.MemberStat, len(members))
	for i, s := range members {
		stats[i] = machsim.MemberStat{Member: s.Name(), Outcome: outcomes[i], WallNS: walls[i].Nanoseconds()}
		if results[i] != nil {
			stats[i].Makespan = results[i].Makespan
		}
		if tr != nil {
			tr.ObserveSub("portfolio:"+s.Name(), starts[i], walls[i],
				obs.KV{Key: "outcome", Val: outcomes[i]},
				obs.KV{Key: "makespan", Val: strconv.FormatFloat(stats[i].Makespan, 'g', -1, 64)})
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("solver: every portfolio member failed: %w", errors.Join(errs...))
	}
	if tr != nil {
		tr.Annotate("portfolio_winner", members[best].Name())
	}
	out := results[best]
	out.Members = stats
	out.Pruned = pruned
	// How many times the shared bound tightened is a timing fact like the
	// member stats: the service folds it into counters, never into cached
	// bodies.
	out.BoundUpdates = int(boundUpdates.Load())
	if tr != nil && out.BoundUpdates > 0 {
		tr.Annotate("portfolio_bound_updates", strconv.Itoa(out.BoundUpdates))
	}
	// Raced is set whenever an early cancel fired, even if every member
	// happened to outrun the cancellation (in which case this particular
	// outcome was the deterministic best-of-all): whether a member gets
	// dropped is itself a timing fact, so flagging on the trigger rather
	// than the casualty count keeps the cacheability verdict for a given
	// request deterministic. The cost is bounded — the only requests this
	// leaves uncached are those whose optimum equals the trivial lower
	// bound, i.e. the cheapest ones to re-solve. Pruned members taint the
	// race the same way: the winner is unchanged, but the statistics and
	// error set depend on the clock.
	if raced.Load() || pruned > 0 {
		out.Raced = true
	}
	return out, nil
}
