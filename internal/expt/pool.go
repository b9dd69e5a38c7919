package expt

import "runtime"

// The experiment harness fans independent cells (a Table 2 configuration,
// a scaling point, one ablation sample) across the shared orchestration
// layer's worker pool (engine.ParallelFor). Determinism is preserved by
// construction:
//
//   - every cell derives its seeds before the fan-out, never from a shared
//     RNG inside a worker;
//   - every cell writes its result into its own index of a pre-sized
//     slice, so aggregation order is independent of completion order;
//   - the reported error is the lowest-indexed one, not the first to
//     happen.
//
// The same seed therefore yields byte-identical tables at any worker
// count, including 1.
//
// Cells that solve through the worker handed to them (Table 2) reuse that
// worker's simulator arena and SA scheduler arena across cells; the
// remaining studies call the package-level machsim.Run, which draws a
// reusable arena from machsim's internal pool — either way fan-out workers
// reuse warm solve state without the harness threading buffers through
// every study (see PERFORMANCE.md §7 and §9).

// defaultWorkers resolves a Workers knob: values > 0 are used as given,
// anything else means one worker per available CPU.
func defaultWorkers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}
