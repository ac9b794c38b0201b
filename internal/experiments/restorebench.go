package experiments

import (
	"fmt"
	"time"

	"groundhog/internal/benchscenario"
	"groundhog/internal/core"
	"groundhog/internal/metrics"
)

// RestoreBenchResult is the machine-readable summary of the steady-state
// restore microbenchmark, emitted by `ghbench -e bench-restore` as one entry
// of BENCH_restore.json (one per write tracker): the simulated restore
// latency the figures report and the page counts behind it. What the hot
// path costs the host is measured by bench/e2e (core.restore.ns) and its
// zero allocations are pinned by internal/core's ZeroAllocs tests.
type RestoreBenchResult struct {
	Benchmark       string  `json:"benchmark"`
	Tracker         string  `json:"tracker"`
	HeapPages       int     `json:"heap_pages"`
	DirtyPerRequest int     `json:"dirty_pages_per_request"`
	Iterations      int     `json:"iterations"`
	VirtualUsPerOp  float64 `json:"virtual_us_per_restore"`
	MappedPages     int     `json:"mapped_pages"`
	DirtyPages      int     `json:"dirty_pages"`
	RestoredPages   int     `json:"restored_pages"`
}

// RestoreBenchOpts runs the steady-state restore scenario (fixed dirty set,
// stable memory layout — the regime of Fig. 3 left; the exact workload is
// internal/benchscenario, shared with the core package's allocation guards)
// for iters request/restore cycles and reports the last restore's virtual
// cost and page counts.
func RestoreBenchOpts(cfg Config, heapPages, dirtyPages, iters int, opts core.Options) (RestoreBenchResult, error) {
	_, m, request, err := benchscenario.SteadyState(cfg.Cost, heapPages, dirtyPages, opts)
	if err != nil {
		return RestoreBenchResult{}, err
	}

	var last core.RestoreStats
	for i := 0; i < iters; i++ {
		request()
		if last, err = m.Restore(); err != nil {
			return RestoreBenchResult{}, err
		}
	}
	return RestoreBenchResult{
		Benchmark:       "restore-steady-state",
		Tracker:         opts.Tracker.String(),
		HeapPages:       heapPages,
		DirtyPerRequest: dirtyPages,
		Iterations:      iters,
		VirtualUsPerOp:  float64(last.Total) / float64(time.Microsecond),
		MappedPages:     last.MappedPages,
		DirtyPages:      last.DirtyPages,
		RestoredPages:   last.RestoredPages,
	}, nil
}

// RestoreBenchVariants runs the steady-state microbenchmark once per write
// tracker — soft-dirty (the design the paper ships) and UFFD (the §4.3
// ablation) — so BENCH_restore.json tracks both hot paths across commits.
func RestoreBenchVariants(cfg Config, heapPages, dirtyPages, iters int) ([]RestoreBenchResult, error) {
	var out []RestoreBenchResult
	for _, tracker := range []core.TrackerKind{core.TrackSoftDirty, core.TrackUffd} {
		opts := core.DefaultOptions()
		opts.Tracker = tracker
		r, err := RestoreBenchOpts(cfg, heapPages, dirtyPages, iters, opts)
		if err != nil {
			return nil, fmt.Errorf("%s tracker: %w", tracker, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// RestoreBenchTable renders one or more RestoreBenchResults for the console,
// one column per tracker variant.
func RestoreBenchTable(results ...RestoreBenchResult) *metrics.Table {
	if len(results) == 0 {
		return metrics.NewTable("Steady-state restore microbenchmark (no results)", "metric")
	}
	r0 := results[0]
	cols := []string{"metric"}
	for _, r := range results {
		cols = append(cols, r.Tracker)
	}
	t := metrics.NewTable(
		fmt.Sprintf("Steady-state restore microbenchmark: %d-page heap, %d dirty pages/request, %d iterations",
			r0.HeapPages, r0.DirtyPerRequest, r0.Iterations),
		cols...)
	row := func(name string, val func(RestoreBenchResult) string) {
		cells := []string{}
		for _, r := range results {
			cells = append(cells, val(r))
		}
		t.AddRow(append([]string{name}, cells...)...)
	}
	row("virtual µs/restore", func(r RestoreBenchResult) string { return fmt.Sprintf("%.1f", r.VirtualUsPerOp) })
	row("mapped pages", func(r RestoreBenchResult) string { return fmt.Sprintf("%d", r.MappedPages) })
	row("dirty pages", func(r RestoreBenchResult) string { return fmt.Sprintf("%d", r.DirtyPages) })
	row("restored pages", func(r RestoreBenchResult) string { return fmt.Sprintf("%d", r.RestoredPages) })
	return t
}
