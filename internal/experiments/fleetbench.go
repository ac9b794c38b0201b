package experiments

import (
	"fmt"
	"time"

	"groundhog/internal/isolation"
	"groundhog/internal/metrics"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
)

// FleetVariantStats is the per-variant accumulation shared by the fleet
// and policy benchmarks: request/cold-start/reap counters, the summed
// cold-start bill, pooled latency percentiles, and the frame figures. Every
// field is a deterministic simulation output, held to its committed bytes.
type FleetVariantStats struct {
	Requests           int     `json:"requests"`
	FullColdStarts     int     `json:"full_cold_starts"`
	CloneColdStarts    int     `json:"clone_cold_starts"`
	ColdStartVirtualUs float64 `json:"cold_start_total_virtual_us"`
	E2EP50VirtualMs    float64 `json:"e2e_p50_virtual_ms"`
	E2EP95VirtualMs    float64 `json:"e2e_p95_virtual_ms"`
	QueueP95VirtualMs  float64 `json:"queue_p95_virtual_ms"`
	PeakFramesInUse    int     `json:"peak_frames_in_use"`
	EndFrames          int     `json:"end_frames"`
	Reaped             int     `json:"reaped"`
	ScaledToZero       int     `json:"scaled_to_zero"`
	ImagesEvicted      int     `json:"images_evicted"`
}

// summarizeVariantStats folds per-function stats into the shared variant
// summary. The latency percentiles are computed over the pooled
// per-request samples of every function, matching how a provider would
// report fleet SLOs.
func summarizeVariantStats(out *trace.Result) FleetVariantStats {
	v := FleetVariantStats{
		PeakFramesInUse: out.PeakFrames,
		EndFrames:       out.EndFrames,
	}
	e2es := make([]metrics.Recorder, 0, len(out.PerFunction))
	queues := make([]metrics.Recorder, 0, len(out.PerFunction))
	for _, fs := range out.PerFunction {
		v.Requests += fs.Requests
		v.FullColdStarts += fs.FullColdStarts
		v.CloneColdStarts += fs.CloneColdStarts
		v.ColdStartVirtualUs += float64(fs.ColdStartCost) / float64(time.Microsecond)
		v.Reaped += fs.Reaped
		v.ScaledToZero += fs.ScaledToZero
		v.ImagesEvicted += fs.ImagesEvicted
		e2es = append(e2es, fs.E2E)
		queues = append(queues, fs.Queue)
	}
	e2e := metrics.Pool(e2es...)
	queue := metrics.Pool(queues...)
	v.E2EP50VirtualMs = e2e.Percentile(50)
	v.E2EP95VirtualMs = e2e.Percentile(95)
	v.QueueP95VirtualMs = queue.Percentile(95)
	return v
}

// FleetBenchVariant is one fleet scale-out mode's outcome under the shared
// bursty arrival trace, as emitted into BENCH_fleet.json.
type FleetBenchVariant struct {
	Variant string `json:"variant"`
	FleetVariantStats
}

// FleetBenchResult compares the two scale-out policies under identical
// arrivals: the keep-alive-only fleet pays the full Fig. 1 pipeline for
// every scale-up, the clone-scale-out fleet pays it once per deployment
// lifetime and clones afterwards. One entry of BENCH_fleet.json.
type FleetBenchResult struct {
	Benchmark     string            `json:"benchmark"`
	Mode          string            `json:"mode"`
	Functions     int               `json:"functions"`
	WindowMs      float64           `json:"window_ms"`
	KeepAlive     FleetBenchVariant `json:"keepalive"`
	CloneScaleOut FleetBenchVariant `json:"clone_scaleout"`
	// ColdStartSavingsX is keep-alive's total cold-start bill over the
	// clone fleet's.
	ColdStartSavingsX float64 `json:"coldstart_cost_keepalive_over_clone"`
}

// fleetBenchConfig is the shared fleet shape of the benchmark: pools deep
// enough to scale, a short keep-alive so bursts force cold starts, and
// scale-to-zero so both fleets exercise the full image lifecycle.
func fleetBenchConfig(cfg Config, window sim.Duration) trace.Config {
	return trace.Config{
		Cost:                     cfg.Cost,
		Mode:                     isolation.ModeGH,
		Seed:                     cfg.Seed,
		MaxContainersPerFunction: 4,
		KeepAlive:                trace.DefaultKeepAlive,
		ScaleToZeroAfter:         trace.DefaultScaleToZeroAfter,
		Window:                   window,
	}
}

// FleetBench runs the clone-aware fleet benchmark: the fleetMix workload
// (bursty, Azure-style arrivals) twice with the same seed — once scaling out
// through full cold starts (keep-alive only), once through snapshot clones
// with scale-to-zero image eviction — and summarizes both for
// BENCH_fleet.json. Arrivals are independent of dispatch, so the two
// variants serve exactly the same request trace. quick halves the window
// and truncates the mix; it is an explicit parameter (not inferred from
// cfg.MaxBenchmarks, the catalog-truncation knob) because it changes the
// artifact's shape and must be the scale the suite's Registry entry records
// for its baseline.
func FleetBench(cfg Config, quick bool) (FleetBenchResult, error) {
	loads, window, err := fleetMixLoads(quick)
	if err != nil {
		return FleetBenchResult{}, err
	}

	res := FleetBenchResult{
		Benchmark: "fleet-bursty-mix",
		Mode:      string(isolation.ModeGH),
		Functions: len(loads),
		WindowMs:  float64(window) / float64(time.Millisecond),
	}
	for _, variant := range []string{"keepalive", "clone-scaleout"} {
		tc := fleetBenchConfig(cfg, window)
		tc.CloneScaleOut = variant == "clone-scaleout"
		fl, err := trace.NewFleet(tc, loads)
		if err != nil {
			return FleetBenchResult{}, err
		}
		out, err := fl.Run()
		if err != nil {
			return FleetBenchResult{}, fmt.Errorf("%s fleet: %w", variant, err)
		}
		v := summarizeFleet(variant, out)
		if variant == "keepalive" {
			res.KeepAlive = v
		} else {
			res.CloneScaleOut = v
		}
	}
	if res.CloneScaleOut.ColdStartVirtualUs > 0 {
		res.ColdStartSavingsX = res.KeepAlive.ColdStartVirtualUs / res.CloneScaleOut.ColdStartVirtualUs
	}
	return res, nil
}

// summarizeFleet folds per-function stats into one scale-out variant
// summary.
func summarizeFleet(variant string, out *trace.Result) FleetBenchVariant {
	return FleetBenchVariant{Variant: variant, FleetVariantStats: summarizeVariantStats(out)}
}

// FleetBenchTable renders the comparison for the console.
func FleetBenchTable(res FleetBenchResult) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Clone-aware fleet scheduling: %d functions, %s, %.0f ms window (keep-alive cold-start bill %.1fx the clone fleet's)",
			res.Functions, res.Mode, res.WindowMs, res.ColdStartSavingsX),
		"metric", "keep-alive only", "clone scale-out")
	row := func(name string, f func(FleetBenchVariant) string) {
		t.AddRow(name, f(res.KeepAlive), f(res.CloneScaleOut))
	}
	row("requests", func(v FleetBenchVariant) string { return fmt.Sprintf("%d", v.Requests) })
	row("full cold starts", func(v FleetBenchVariant) string { return fmt.Sprintf("%d", v.FullColdStarts) })
	row("clone cold starts", func(v FleetBenchVariant) string { return fmt.Sprintf("%d", v.CloneColdStarts) })
	row("cold-start cost (virtual ms)", func(v FleetBenchVariant) string { return fmt.Sprintf("%.1f", v.ColdStartVirtualUs/1e3) })
	row("E2E p50 (ms)", func(v FleetBenchVariant) string { return fmt.Sprintf("%.1f", v.E2EP50VirtualMs) })
	row("E2E p95 (ms)", func(v FleetBenchVariant) string { return fmt.Sprintf("%.1f", v.E2EP95VirtualMs) })
	row("queue p95 (ms)", func(v FleetBenchVariant) string { return fmt.Sprintf("%.1f", v.QueueP95VirtualMs) })
	row("peak frames", func(v FleetBenchVariant) string { return fmt.Sprintf("%d", v.PeakFramesInUse) })
	row("frames after drain", func(v FleetBenchVariant) string { return fmt.Sprintf("%d", v.EndFrames) })
	row("reaped / scaled-to-zero / evicted", func(v FleetBenchVariant) string {
		return fmt.Sprintf("%d / %d / %d", v.Reaped, v.ScaledToZero, v.ImagesEvicted)
	})
	return t
}
