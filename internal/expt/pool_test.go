package expt

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
)

// fanOut is the harness's fan-out as every study calls it: a Workers knob
// resolved by defaultWorkers, then the shared engine pool.
func fanOut(workers, n int, fn func(i int) error) error {
	return engine.ParallelFor(defaultWorkers(workers), n, func(i int, _ *engine.Worker) error {
		return fn(i)
	})
}

func TestParallelForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 37
		counts := make([]atomic.Int64, n)
		if err := fanOut(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestParallelForReturnsLowestIndexError(t *testing.T) {
	boom := func(i int) error {
		if i == 3 || i == 11 {
			return fmt.Errorf("cell %d failed", i)
		}
		return nil
	}
	for _, workers := range []int{1, 4} {
		err := fanOut(workers, 20, boom)
		if err == nil || err.Error() != "cell 3 failed" {
			t.Errorf("workers=%d: err = %v, want cell 3's", workers, err)
		}
	}
	if err := fanOut(4, 0, boom); err != nil {
		t.Errorf("empty range: err = %v", err)
	}
}
