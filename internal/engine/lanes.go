package engine

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
)

// Lane is a QoS class: every job enters the engine through exactly one
// lane, each lane has its own bounded queue and admission budgets, and
// workers dequeue across lanes by weight so interactive traffic keeps a
// bounded wait even while the batch lane is saturated.
type Lane int

const (
	// LaneInteractive is the latency-sensitive lane: single schedule
	// calls default here, and it wins the weighted dequeue. The zero
	// value, so an unspecified Job lane is interactive.
	LaneInteractive Lane = iota
	// LaneBatch is the throughput lane: batch members default here, it
	// yields to interactive work under contention, and it is the lane
	// admission control sheds first under overload.
	LaneBatch

	numLanes
)

// String returns the lane's wire name.
func (l Lane) String() string {
	switch l {
	case LaneInteractive:
		return "interactive"
	case LaneBatch:
		return "batch"
	default:
		return fmt.Sprintf("lane(%d)", int(l))
	}
}

func (l Lane) valid() bool { return l >= 0 && l < numLanes }

// ParseLane resolves a wire lane name ("interactive" or "batch").
func ParseLane(s string) (Lane, error) {
	switch s {
	case "interactive":
		return LaneInteractive, nil
	case "batch":
		return LaneBatch, nil
	default:
		return 0, fmt.Errorf("engine: unknown lane %q (want interactive or batch)", s)
	}
}

// ErrOverloaded is the sentinel every admission-control rejection matches
// (errors.Is). The concrete error is an *OverloadError carrying the lane,
// the observed queue state and a Retry-After suggestion.
var ErrOverloaded = errors.New("engine: lane overloaded")

// OverloadError reports a submission shed by admission control: the
// lane's queue was at its depth budget, or its head-of-queue delay
// exceeded the configured target. The job never ran.
type OverloadError struct {
	// Lane is the lane that refused the job.
	Lane Lane
	// Queued is the lane's queue length at rejection.
	Queued int
	// QueueDelay is how long the lane's oldest queued job had been
	// waiting at rejection — the signal admission control acted on.
	QueueDelay time.Duration
	// RetryAfter is the engine's suggestion for when a retry is likely
	// to be admitted (at least one second, so it maps directly onto an
	// HTTP Retry-After header).
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("engine: %s lane overloaded (%d queued, head waiting %s); retry after %s",
		e.Lane, e.Queued, e.QueueDelay.Round(time.Millisecond), e.RetryAfter)
}

// Is makes every *OverloadError match the ErrOverloaded sentinel.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// LaneStats is a point-in-time snapshot of one lane's counters.
type LaneStats struct {
	// Queued is the current queue length (claimed-but-expired tombstones
	// included until a worker skips past them).
	Queued int `json:"queued"`
	// Submitted counts jobs admitted into the lane's queue.
	Submitted uint64 `json:"submitted"`
	// Completed counts jobs a worker ran to completion (success or
	// solver error — the job executed).
	Completed uint64 `json:"completed"`
	// Shed counts submissions refused by admission control (depth budget
	// or queue-delay target exceeded).
	Shed uint64 `json:"shed"`
	// Expired counts jobs whose context ended while queued: they were
	// answered with ErrQueueTimeout and never ran.
	Expired uint64 `json:"expired"`
	// QueueDelayEWMA is an exponentially weighted moving average of the
	// enqueue-to-dequeue delay, in seconds.
	QueueDelayEWMA float64 `json:"queue_delay_ewma_seconds"`
	// MaxQueueDelayNS is the worst enqueue-to-dequeue delay observed.
	MaxQueueDelayNS int64 `json:"max_queue_delay_ns"`
	// QueueDelayTargetNS is the configured Config.QueueDelayTarget the
	// lane sheds against (0 when delay-based shedding is off).
	QueueDelayTargetNS int64 `json:"queue_delay_target_ns"`
	// QueueDelay is the full enqueue-to-dequeue delay distribution —
	// what /metrics exports per lane; /statsz keeps the scalar summary
	// above, so the histogram stays off the JSON wire.
	QueueDelay obs.HistSnapshot `json:"-"`
}

// laneCounters is the engine-internal mutable form of LaneStats.
type laneCounters struct {
	submitted uint64
	completed uint64
	shed      uint64
	expired   uint64
	delayEWMA float64 // seconds
	maxDelay  time.Duration
	hasEWMA   bool
	delayHist *obs.Histogram
}

// observeDelay folds one enqueue-to-dequeue delay into the lane's moving
// average (EWMA, alpha 0.2), max, and full distribution.
func (c *laneCounters) observeDelay(d time.Duration) {
	s := d.Seconds()
	if !c.hasEWMA {
		c.delayEWMA = s
		c.hasEWMA = true
	} else {
		c.delayEWMA = 0.8*c.delayEWMA + 0.2*s
	}
	if d > c.maxDelay {
		c.maxDelay = d
	}
	c.delayHist.Observe(d)
}
