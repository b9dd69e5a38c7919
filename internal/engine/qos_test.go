package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestParseLane(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Lane
		ok   bool
	}{
		{"interactive", LaneInteractive, true},
		{"batch", LaneBatch, true},
		{"", 0, false},
		{"Batch", 0, false},
		{"priority", 0, false},
	} {
		got, err := ParseLane(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseLane(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseLane(%q) accepted", tc.in)
		}
	}
	if LaneInteractive.String() != "interactive" || LaneBatch.String() != "batch" {
		t.Fatalf("lane names: %q, %q", LaneInteractive, LaneBatch)
	}
}

// waitBusy blocks until the engine reports n busy workers — i.e. the
// gated leader jobs of a test have actually been claimed, so subsequent
// submissions are guaranteed to queue.
func waitBusy(t *testing.T, eng *Engine, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Busy < n {
		if time.Now().After(deadline) {
			t.Fatalf("engine never reached %d busy workers: %+v", n, eng.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWeightedDequeueFavorsInteractive loads both lanes behind one gated
// worker with weight 1 and checks the drain order strictly alternates
// interactive/batch — the batch lane neither starves nor starves the
// interactive lane.
func TestWeightedDequeueFavorsInteractive(t *testing.T) {
	eng := New(Config{Workers: 1, InteractiveWeight: 1})
	defer eng.Close()

	block := newGate()
	defer block.open() // a failed check must not leave Close waiting on the leader
	var mu sync.Mutex
	var order []Lane
	probe := func(lane Lane) probeSolver {
		return probeSolver{fn: func() {
			mu.Lock()
			order = append(order, lane)
			mu.Unlock()
		}}
	}

	// Occupy the single worker so subsequent submissions queue.
	leader := testJobs(t, 1)[0]
	leader.Solver = gatedSolver{g: block}
	leaderCh := eng.Submit(context.Background(), leader)
	waitBusy(t, eng, 1) // claim before loading the lanes: the drain order is then deterministic

	waitQueued := func(lane Lane, want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if eng.Stats().Lanes[lane.String()].Queued >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("lane %s never reached %d queued", lane, want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	const perLane = 3
	var outs []<-chan Item
	base := testJobs(t, 1)[0]
	for i := 0; i < perLane; i++ {
		bj := base
		bj.Lane = LaneBatch
		bj.Solver = probe(LaneBatch)
		outs = append(outs, eng.Submit(context.Background(), bj))
		waitQueued(LaneBatch, i+1)
		ij := base
		ij.Lane = LaneInteractive
		ij.Solver = probe(LaneInteractive)
		outs = append(outs, eng.Submit(context.Background(), ij))
		waitQueued(LaneInteractive, i+1)
	}

	block.open()
	if item := <-leaderCh; item.Err != nil {
		t.Fatalf("leader: %v", item.Err)
	}
	for _, ch := range outs {
		if item := <-ch; item.Err != nil {
			t.Fatalf("queued job: %v", item.Err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2*perLane {
		t.Fatalf("ran %d queued jobs, want %d", len(order), 2*perLane)
	}
	// With weight 1 and both lanes non-empty throughout the drain, the
	// single worker must strictly alternate starting with interactive.
	for i, lane := range order {
		want := LaneInteractive
		if i%2 == 1 {
			want = LaneBatch
		}
		if lane != want {
			t.Fatalf("drain order %v: position %d is %s, want %s", order, i, lane, want)
		}
	}

	st := eng.Stats()
	if st.Lanes["interactive"].Completed != uint64(perLane)+1 || st.Lanes["batch"].Completed != uint64(perLane) {
		t.Fatalf("lane completions: %+v", st.Lanes)
	}
}

// TestAdmissionControlShedsOnDepth fills the batch lane to its depth
// budget and checks the next batch submission is shed with a structured
// *OverloadError while the interactive lane still admits.
func TestAdmissionControlShedsOnDepth(t *testing.T) {
	eng := New(Config{Workers: 1, QueueDepth: 2})
	defer eng.Close()

	block := newGate()
	defer block.open() // a failed check must not leave Close waiting on the leader
	leader := testJobs(t, 1)[0]
	leader.Solver = gatedSolver{g: block}
	leaderCh := eng.Submit(context.Background(), leader)
	waitBusy(t, eng, 1)

	base := testJobs(t, 1)[0]
	var queued []<-chan Item
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Lanes["batch"].Queued < 2 {
		if time.Now().After(deadline) {
			t.Fatal("batch lane never filled")
		}
		bj := base
		bj.Lane = LaneBatch
		queued = append(queued, eng.Submit(context.Background(), bj))
		if len(queued) > 2 {
			// The worker may have dequeued one before blocking on the
			// leader is established; with the leader gated this cannot
			// happen, so more than 2 submissions means a bug.
			t.Fatalf("admitted %d batch jobs past a depth budget of 2", len(queued))
		}
	}

	bj := base
	bj.Lane = LaneBatch
	item := <-eng.Submit(context.Background(), bj)
	if !errors.Is(item.Err, ErrOverloaded) {
		t.Fatalf("over-depth batch submit err = %v, want ErrOverloaded", item.Err)
	}
	var ov *OverloadError
	if !errors.As(item.Err, &ov) {
		t.Fatalf("err %v is not an *OverloadError", item.Err)
	}
	if ov.Lane != LaneBatch || ov.Queued != 2 || ov.RetryAfter < time.Second {
		t.Fatalf("overload detail = %+v", ov)
	}

	// The interactive lane has its own budget: it still admits.
	ij := base
	ij.Lane = LaneInteractive
	ich := eng.Submit(context.Background(), ij)

	block.open()
	if item := <-leaderCh; item.Err != nil {
		t.Fatalf("leader: %v", item.Err)
	}
	if item := <-ich; item.Err != nil {
		t.Fatalf("interactive job after batch shed: %v", item.Err)
	}
	for _, ch := range queued {
		if item := <-ch; item.Err != nil {
			t.Fatalf("queued batch job: %v", item.Err)
		}
	}

	st := eng.Stats()
	if st.Lanes["batch"].Shed != 1 || st.Lanes["interactive"].Shed != 0 {
		t.Fatalf("shed counters: %+v", st.Lanes)
	}
}

// TestAdmissionControlShedsOnQueueDelay checks delay-based shedding: once
// the head of a lane's queue has waited past the target, new submissions
// to that lane are refused with a RetryAfter at least the head's age, and
// Stats reports the configured target for both lanes.
func TestAdmissionControlShedsOnQueueDelay(t *testing.T) {
	eng := New(Config{Workers: 1, QueueDelayTarget: 5 * time.Millisecond})
	defer eng.Close()

	block := newGate()
	defer block.open() // a failed check must not leave Close waiting on the leader
	leader := testJobs(t, 1)[0]
	leader.Solver = gatedSolver{g: block}
	leaderCh := eng.Submit(context.Background(), leader)
	waitBusy(t, eng, 1)

	base := testJobs(t, 1)[0]
	bj := base
	bj.Lane = LaneBatch
	deadline := time.Now().Add(5 * time.Second)
	var queuedCh <-chan Item
	for eng.Stats().Lanes["batch"].Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("batch head never queued")
		}
		if queuedCh != nil {
			t.Fatal("first batch submission not queued with the worker gated")
		}
		queuedCh = eng.Submit(context.Background(), bj)
	}
	time.Sleep(20 * time.Millisecond) // age the head past the 5ms target

	item := <-eng.Submit(context.Background(), bj)
	var ov *OverloadError
	if !errors.As(item.Err, &ov) {
		t.Fatalf("aged-queue submit err = %v, want *OverloadError", item.Err)
	}
	if ov.QueueDelay < 5*time.Millisecond || ov.RetryAfter < time.Second {
		t.Fatalf("overload detail = %+v", ov)
	}
	// Stats echoes the configured target for every lane.
	for lane, ls := range eng.Stats().Lanes {
		if ls.QueueDelayTargetNS != int64(5*time.Millisecond) {
			t.Errorf("%s QueueDelayTargetNS = %d, want 5ms", lane, ls.QueueDelayTargetNS)
		}
	}

	block.open()
	if item := <-leaderCh; item.Err != nil {
		t.Fatalf("leader: %v", item.Err)
	}
	if item := <-queuedCh; item.Err != nil {
		t.Fatalf("queued job: %v", item.Err)
	}
}

// TestQueuedJobCancelledByContextCountsExpired re-checks the queue-timeout
// contract under the lane machinery: the expired job is answered without
// running, counted in the lane's Expired, and never in Completed.
func TestQueuedJobCancelledByContextCountsExpired(t *testing.T) {
	eng := New(Config{Workers: 1})
	defer eng.Close()

	block := newGate()
	defer block.open() // a failed check must not leave Close waiting on the leader
	leader := testJobs(t, 1)[0]
	leader.Solver = gatedSolver{g: block}
	leaderCh := eng.Submit(context.Background(), leader)
	waitBusy(t, eng, 1)

	ctx, cancel := context.WithCancel(context.Background())
	queued := testJobs(t, 1)[0]
	queued.Lane = LaneBatch
	ch := eng.Submit(ctx, queued)
	cancel()
	item := <-ch
	if !errors.Is(item.Err, ErrQueueTimeout) || !errors.Is(item.Err, context.Canceled) {
		t.Fatalf("cancelled queued item err = %v", item.Err)
	}

	block.open()
	if item := <-leaderCh; item.Err != nil {
		t.Fatalf("leader: %v", item.Err)
	}
	st := eng.Stats()
	if st.Lanes["batch"].Expired != 1 || st.Lanes["batch"].Completed != 0 {
		t.Fatalf("batch lane counters %+v", st.Lanes["batch"])
	}
	if st.Completed != 1 {
		t.Fatalf("completed = %d, want 1", st.Completed)
	}
}

// TestQueuedJobsHoldNoGoroutine: a job queued under a cancellable context
// holds no goroutine while it waits behind a busy worker, and the end of
// its context still answers it with ErrQueueTimeout, counted as expired.
func TestQueuedJobsHoldNoGoroutine(t *testing.T) {
	const n = 32
	eng := New(Config{Workers: 1})
	defer eng.Close()

	block := newGate()
	defer block.open() // a failed check must not leave Close waiting on the leader
	leader := testJobs(t, 1)[0]
	leader.Solver = gatedSolver{g: block}
	leaderCh := eng.Submit(context.Background(), leader)
	waitBusy(t, eng, 1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queued := testJobs(t, 1)[0]
	before := runtime.NumGoroutine()
	chs := make([]<-chan Item, n)
	for i := range chs {
		chs[i] = eng.Submit(ctx, queued)
	}
	if grew := runtime.NumGoroutine() - before; grew >= n {
		t.Fatalf("%d queued jobs grew the goroutine count by %d, want fewer than %d", n, grew, n)
	}

	cancel()
	for i, ch := range chs {
		if item := <-ch; !errors.Is(item.Err, ErrQueueTimeout) || !errors.Is(item.Err, context.Canceled) {
			t.Fatalf("queued job %d: err = %v, want ErrQueueTimeout", i, item.Err)
		}
	}
	if got := eng.Stats().Lanes["interactive"].Expired; got != n {
		t.Fatalf("expired = %d, want %d", got, n)
	}
	block.open()
	if item := <-leaderCh; item.Err != nil {
		t.Fatalf("leader: %v", item.Err)
	}
}

// TestCloseFailsQueuedTasks closes an engine with queued work and checks
// every queued task is answered with ErrClosed.
func TestCloseFailsQueuedTasks(t *testing.T) {
	eng := New(Config{Workers: 1})
	block := newGate()
	defer block.open() // a failed check must not leave the leader blocked
	leader := testJobs(t, 1)[0]
	leader.Solver = gatedSolver{g: block}
	leaderCh := eng.Submit(context.Background(), leader)
	waitBusy(t, eng, 1)

	var chs []<-chan Item
	base := testJobs(t, 1)[0]
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Lanes["interactive"].Queued < 3 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		if len(chs) >= 3 {
			break
		}
		chs = append(chs, eng.Submit(context.Background(), base))
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.Close()
	}()
	for _, ch := range chs {
		if item := <-ch; !errors.Is(item.Err, ErrClosed) {
			t.Errorf("queued task err = %v, want ErrClosed", item.Err)
		}
	}
	block.open()
	if item := <-leaderCh; item.Err != nil {
		t.Errorf("in-flight leader failed: %v", item.Err)
	}
	<-done
}
