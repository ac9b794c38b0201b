package experiments

import (
	"fmt"
	"math"
	"time"

	"groundhog/internal/isolation"
	"groundhog/internal/metrics"
	"groundhog/internal/runtimes"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
)

// microProfile is one synthetic microservice of the benchmark's head: a
// tiny, hot function in the mold of the Azure trace's volume carriers —
// small warm footprint, a handful of dirtied pages, ~millisecond handler.
// The catalog's Table 3 rows are real benchmark suites; production FaaS
// heads are dominated by functions far smaller than any of them, and at a
// million requests the engine's scalability story is told by exactly this
// class. LangC keeps the layout stable (no per-request mmap churn), so
// these requests exercise the steady-state restore (empty layout diff) end
// to end.
func microProfile(name string, totalPages, dirtyPages int, execMS float64) runtimes.Profile {
	return runtimes.Profile{
		Name:         name,
		Lang:         runtimes.LangC,
		Exec:         sim.Duration(execMS * float64(time.Millisecond)),
		TotalPages:   totalPages,
		DirtyPages:   dirtyPages,
		UniformDirty: true,
	}
}

// fleetXLMix is the million-request workload: 26 deployments in four
// tiers. Tier 0 is the synthetic microservice head above — bursty and
// diurnal hot functions that carry ~95% of the request volume. Tier 1
// adds the catalog's PolyBench kernels (~1 K-page footprints, 10–40-page
// write sets, the cheapest real restores). Tier 2 staggers diurnal peaks
// across the window so the fleet's aggregate rate breathes instead of
// holding a flat plateau. Tier 3 is the long tail: Python and Node
// functions whose per-request layout churn makes every restore diff and
// reverse the layout and whose low rates keep the reaper, scale-to-zero, and clone-eviction
// machinery busy without dominating volume. Rates are per-second of
// simulated time; the window is sized so the sum comfortably clears a
// million requests.
var fleetXLMix = []mixEntry{
	// Tier 0: the microservice head — bursty...
	{micro: microProfile("u-auth", 192, 5, 0.9), rate: 6000, burst: 4},
	{micro: microProfile("u-router", 160, 4, 0.7), rate: 5000, burst: 3},
	{micro: microProfile("u-thumb", 256, 8, 1.6), rate: 4000, burst: 4},
	{micro: microProfile("u-notify", 192, 6, 1.1), rate: 3000, burst: 2},
	// ...and diurnal, peaks staggered around the clock.
	{micro: microProfile("u-feed", 224, 7, 1.3), rate: 2500, amp: 0.8, period: 20 * time.Second},
	{micro: microProfile("u-cart", 192, 5, 1.0), rate: 2000, amp: 0.8, period: 20 * time.Second, phase: math.Pi / 2},
	{micro: microProfile("u-quote", 160, 4, 0.8), rate: 1500, amp: 0.7, period: 30 * time.Second, phase: math.Pi},
	{micro: microProfile("u-geo", 128, 4, 0.6), rate: 1000, amp: 0.6, period: 15 * time.Second, phase: 3 * math.Pi / 2},
	// Tier 1: catalog PolyBench kernels, bursty.
	{name: "jacobi-1d (c)", rate: 600, burst: 4},
	{name: "durbin (c)", rate: 500, burst: 3},
	{name: "trisolv (c)", rate: 300, burst: 3},
	// Tier 2: catalog kernels with staggered diurnal peaks.
	{name: "atax (c)", rate: 250, amp: 0.8, period: 20 * time.Second},
	{name: "bicg (c)", rate: 200, amp: 0.8, period: 20 * time.Second, phase: math.Pi / 2},
	{name: "mvt (c)", rate: 100, amp: 0.7, period: 20 * time.Second, phase: math.Pi},
	// Tier 3: the Python/Node long tail — churny layouts, pool churn.
	{name: "get-time (p)", rate: 40, burst: 3},
	{name: "version (p)", rate: 30, burst: 2},
	{name: "unpack_seq (p)", rate: 20},
	{name: "json (p)", rate: 15, amp: 0.5, period: 15 * time.Second},
	{name: "deltablue (p)", rate: 10, amp: 0.5, period: 20 * time.Second, phase: math.Pi},
	{name: "float (p)", rate: 8, amp: 0.6, period: 30 * time.Second},
	{name: "telco (p)", rate: 6, burst: 2, amp: 0.4, period: 30 * time.Second, phase: math.Pi / 2},
	{name: "pickle (p)", rate: 4, burst: 2},
	{name: "logging (p)", rate: 3, burst: 1},
	{name: "richards (p)", rate: 2},
	{name: "get-time (n)", rate: 2, burst: 1},
	{name: "json (n)", rate: 1},
}

// FleetXLBenchResult is the single entry of BENCH_fleet_xl.json: what a
// million-request fleet run under sketch-backed stats computes — request
// counts, virtual-time percentiles, frame figures. How fast the engine runs
// it is bench/e2e's sim-head workload, and that it retains nothing per
// request is trace.TestFleetSteadyStateAllocsPerRequest.
type FleetXLBenchResult struct {
	Benchmark string  `json:"benchmark"`
	Mode      string  `json:"mode"`
	Functions int     `json:"functions"`
	WindowMs  float64 `json:"window_ms"`

	Requests               int     `json:"requests"`
	ReachedMillionRequests bool    `json:"reached_million_requests"`
	FullColdStarts         int     `json:"full_cold_starts"`
	CloneColdStarts        int     `json:"clone_cold_starts"`
	ColdStartVirtualUs     float64 `json:"cold_start_total_virtual_us"`
	E2EP50VirtualMs        float64 `json:"e2e_p50_virtual_ms"`
	E2EP95VirtualMs        float64 `json:"e2e_p95_virtual_ms"`
	E2EP99VirtualMs        float64 `json:"e2e_p99_virtual_ms"`
	QueueP95VirtualMs      float64 `json:"queue_p95_virtual_ms"`
	PeakFramesInUse        int     `json:"peak_frames_in_use"`
	EndFrames              int     `json:"end_frames"`
	Reaped                 int     `json:"reaped"`
	ScaledToZero           int     `json:"scaled_to_zero"`
	ImagesEvicted          int     `json:"images_evicted"`
}

// FleetXLBench runs the million-request fleet benchmark: the fleetXLMix
// workload (26 functions — bursty + diurnal microservice head, PolyBench
// kernels, Python/Node tail) through one clone-scale-out GH fleet with
// SketchStats enabled. quick shrinks the window 40x for unit tests; the CI
// gate and the committed baseline use the full window.
func FleetXLBench(cfg Config, quick bool) (FleetXLBenchResult, error) {
	loads, err := mixLoads(fleetXLMix)
	if err != nil {
		return FleetXLBenchResult{}, err
	}
	window := sim.Duration(40 * time.Second)
	if quick {
		window = sim.Duration(1 * time.Second)
	}

	tc := trace.Config{
		Cost:                     cfg.Cost,
		Mode:                     isolation.ModeGH,
		Seed:                     cfg.Seed,
		MaxContainersPerFunction: 64,
		KeepAlive:                trace.DefaultKeepAlive,
		ScaleToZeroAfter:         trace.DefaultScaleToZeroAfter,
		Window:                   window,
		CloneScaleOut:            true,
		SketchStats:              true,
	}
	fl, err := trace.NewFleet(tc, loads)
	if err != nil {
		return FleetXLBenchResult{}, err
	}

	out, err := fl.Run()
	if err != nil {
		return FleetXLBenchResult{}, fmt.Errorf("fleet-xl: %w", err)
	}

	res := FleetXLBenchResult{
		Benchmark:       "fleet-xl-million",
		Mode:            string(isolation.ModeGH),
		Functions:       len(loads),
		WindowMs:        float64(window) / float64(time.Millisecond),
		PeakFramesInUse: out.PeakFrames,
		EndFrames:       out.EndFrames,
	}
	e2es := make([]metrics.Recorder, 0, len(out.PerFunction))
	queues := make([]metrics.Recorder, 0, len(out.PerFunction))
	for _, fs := range out.PerFunction {
		res.Requests += fs.Requests
		res.FullColdStarts += fs.FullColdStarts
		res.CloneColdStarts += fs.CloneColdStarts
		res.ColdStartVirtualUs += float64(fs.ColdStartCost) / float64(time.Microsecond)
		res.Reaped += fs.Reaped
		res.ScaledToZero += fs.ScaledToZero
		res.ImagesEvicted += fs.ImagesEvicted
		e2es = append(e2es, fs.E2E)
		queues = append(queues, fs.Queue)
	}
	e2e := metrics.Pool(e2es...)
	queue := metrics.Pool(queues...)
	res.E2EP50VirtualMs = e2e.Percentile(50)
	res.E2EP95VirtualMs = e2e.Percentile(95)
	res.E2EP99VirtualMs = e2e.P99()
	res.QueueP95VirtualMs = queue.Percentile(95)

	res.ReachedMillionRequests = res.Requests >= 1_000_000
	return res, nil
}

// FleetXLBenchTable renders the engine-scale benchmark for the console.
func FleetXLBenchTable(res FleetXLBenchResult) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Million-request fleet engine: %d functions, %s, %.0f s window",
			res.Functions, res.Mode, res.WindowMs/1e3),
		"metric", "value")
	t.AddRow("requests", fmt.Sprintf("%d", res.Requests))
	t.AddRow("full / clone cold starts", fmt.Sprintf("%d / %d", res.FullColdStarts, res.CloneColdStarts))
	t.AddRow("E2E p50 / p95 / p99 (virtual ms)", fmt.Sprintf("%.1f / %.1f / %.1f",
		res.E2EP50VirtualMs, res.E2EP95VirtualMs, res.E2EP99VirtualMs))
	t.AddRow("queue p95 (virtual ms)", fmt.Sprintf("%.1f", res.QueueP95VirtualMs))
	t.AddRow("peak frames", fmt.Sprintf("%d", res.PeakFramesInUse))
	t.AddRow("reaped / scaled-to-zero / evicted", fmt.Sprintf("%d / %d / %d",
		res.Reaped, res.ScaledToZero, res.ImagesEvicted))
	return t
}
