package experiments

import (
	"fmt"
	"time"

	"groundhog/internal/benchscenario"
	"groundhog/internal/metrics"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
)

// ScenarioBenchEntry is one workload scenario's outcome in
// BENCH_scenarios.json. Three leaves are invariants the baseline pins at
// zero: LostRequests and LeakedFrames like the fault suite's, and ChainsLost
// — chain conservation (every started chain completes all its stages). Like
// every other field, and the SLOMet verdict, they are held to their
// committed bytes.
type ScenarioBenchEntry struct {
	Scenario  string `json:"scenario"`
	Functions int    `json:"functions"`
	Chains    int    `json:"chains"`

	// SLOTargetMs is the per-request target the scenario's functions are
	// judged against; chains carry their own end-to-end target. SLOMet
	// reports both: pooled per-request p95 under the target and every
	// chain under its chain target.
	SLOTargetMs float64 `json:"slo_target_ms"`
	SLOMet      bool    `json:"slo_met"`

	// Conservation invariants.
	Arrived      int `json:"arrived"`
	Requests     int `json:"requests"`
	LostRequests int `json:"lost_requests"`
	LeakedFrames int `json:"leaked_frames"`

	// Chain conservation: started == completed, lost == 0.
	ChainsStarted   int `json:"chains_started"`
	ChainsCompleted int `json:"chains_completed"`
	ChainsLost      int `json:"chains_lost"`

	// External state-store traffic (the per-operation costs are inside the
	// latency figures).
	StateGets int `json:"state_gets"`
	StatePuts int `json:"state_puts"`

	// Scale-up counters.
	FullColdStarts  int `json:"full_cold_starts"`
	CloneColdStarts int `json:"clone_cold_starts"`

	// Virtual figures.
	ColdStartVirtualUs   float64 `json:"cold_start_total_virtual_us"`
	E2EP50VirtualMs      float64 `json:"e2e_p50_virtual_ms"`
	E2EP95VirtualMs      float64 `json:"e2e_p95_virtual_ms"`
	ChainE2EP95VirtualMs float64 `json:"chain_e2e_p95_virtual_ms"`
	PeakFramesInUse      int     `json:"peak_frames_in_use"`
	EndFrames            int     `json:"end_frames"`
}

// ScenariosBenchResult is the top-level document of BENCH_scenarios.json:
// one entry per workload scenario (chain composition, stateful functions,
// heterogeneous runtimes), all run on the same clone-scale-out GH fleet
// shape as BENCH_fleet.json.
type ScenariosBenchResult struct {
	Benchmark string               `json:"benchmark"`
	Mode      string               `json:"mode"`
	WindowMs  float64              `json:"window_ms"`
	Seed      uint64               `json:"seed"`
	Scenarios []ScenarioBenchEntry `json:"scenarios"`
}

// ScenariosBench runs the three canonical workload scenarios
// (benchscenario.All) — a staged chain with fan-out, stateful functions
// against the external state store, and one function under three runtime
// overlays — each on its own clone-scale-out GH fleet, and summarizes them
// for BENCH_scenarios.json. Each run is deterministic for a fixed seed, so
// the emitted JSON is byte-stable and gated. quick mirrors the other
// suites' reduced scale (half window, lower scenario rates) and must be the
// scale the suite's Registry entry records for its baseline.
func ScenariosBench(cfg Config, quick bool) (ScenariosBenchResult, error) {
	window := sim.Duration(4 * time.Second)
	if quick {
		window = sim.Duration(2 * time.Second)
	}
	scenarios, err := benchscenario.All(quick)
	if err != nil {
		return ScenariosBenchResult{}, err
	}
	res := ScenariosBenchResult{
		Benchmark: "workload-scenarios",
		Mode:      string(fleetBenchConfig(cfg, window).Mode),
		WindowMs:  float64(window) / float64(time.Millisecond),
		Seed:      cfg.Seed,
	}
	for _, sc := range scenarios {
		entry, err := runScenario(cfg, sc, window)
		if err != nil {
			return ScenariosBenchResult{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		res.Scenarios = append(res.Scenarios, entry)
	}
	return res, nil
}

// runScenario executes one scenario on the shared fleet shape and folds the
// result into its JSON entry.
func runScenario(cfg Config, sc benchscenario.Scenario, window sim.Duration) (ScenarioBenchEntry, error) {
	tc := fleetBenchConfig(cfg, window)
	tc.CloneScaleOut = true
	tc.SLOTargetMs = sc.SLOTargetMs
	tc.Chains = sc.Chains
	fl, err := trace.NewFleet(tc, sc.Loads)
	if err != nil {
		return ScenarioBenchEntry{}, err
	}
	out, err := fl.Run()
	if err != nil {
		return ScenarioBenchEntry{}, err
	}

	entry := ScenarioBenchEntry{
		Scenario:        sc.Name,
		Functions:       len(sc.Loads),
		Chains:          len(sc.Chains),
		SLOTargetMs:     sc.SLOTargetMs,
		PeakFramesInUse: out.PeakFrames,
		EndFrames:       out.EndFrames,
	}
	var e2es, chains []metrics.Recorder
	for _, fs := range out.PerFunction {
		entry.Arrived += fs.Arrived
		entry.Requests += fs.Requests
		entry.StateGets += fs.StateGets
		entry.StatePuts += fs.StatePuts
		entry.FullColdStarts += fs.FullColdStarts
		entry.CloneColdStarts += fs.CloneColdStarts
		entry.ColdStartVirtualUs += float64(fs.ColdStartCost) / float64(time.Microsecond)
		e2es = append(e2es, fs.E2E)
	}
	entry.LostRequests = entry.Arrived - entry.Requests

	sloMet := true
	for _, cs := range out.Chains {
		entry.ChainsStarted += cs.Started
		entry.ChainsCompleted += cs.Completed
		entry.ChainsLost += cs.Lost
		sloMet = sloMet && cs.SLOMet
		chains = append(chains, cs.E2E)
	}
	e2e := metrics.Pool(e2es...)
	entry.E2EP50VirtualMs = e2e.Percentile(50)
	entry.E2EP95VirtualMs = e2e.Percentile(95)
	if len(chains) > 0 {
		entry.ChainE2EP95VirtualMs = metrics.Pool(chains...).Percentile(95)
	}
	if sc.SLOTargetMs > 0 && entry.E2EP95VirtualMs > sc.SLOTargetMs {
		sloMet = false
	}
	entry.SLOMet = sloMet
	entry.LeakedFrames = fl.Teardown()
	return entry, nil
}

// ScenariosBenchTable renders the scenario comparison for the console.
func ScenariosBenchTable(res ScenariosBenchResult) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Workload scenarios: %s, %.0f ms window, seed %d",
			res.Mode, res.WindowMs, res.Seed),
		"metric", "chain-pipeline", "stateful-kv", "runtime-profiles")
	row := func(name string, f func(ScenarioBenchEntry) string) {
		cells := make([]string, 0, len(res.Scenarios))
		for _, e := range res.Scenarios {
			cells = append(cells, f(e))
		}
		t.AddRow(append([]string{name}, cells...)...)
	}
	row("functions / chains", func(e ScenarioBenchEntry) string {
		return fmt.Sprintf("%d / %d", e.Functions, e.Chains)
	})
	row("requests (arrived / served / lost)", func(e ScenarioBenchEntry) string {
		return fmt.Sprintf("%d / %d / %d", e.Arrived, e.Requests, e.LostRequests)
	})
	row("chains (started / completed / lost)", func(e ScenarioBenchEntry) string {
		return fmt.Sprintf("%d / %d / %d", e.ChainsStarted, e.ChainsCompleted, e.ChainsLost)
	})
	row("state ops (gets / puts)", func(e ScenarioBenchEntry) string {
		return fmt.Sprintf("%d / %d", e.StateGets, e.StatePuts)
	})
	row("cold starts (full / clone)", func(e ScenarioBenchEntry) string {
		return fmt.Sprintf("%d / %d", e.FullColdStarts, e.CloneColdStarts)
	})
	row("E2E p50 / p95 (ms)", func(e ScenarioBenchEntry) string {
		return fmt.Sprintf("%.1f / %.1f", e.E2EP50VirtualMs, e.E2EP95VirtualMs)
	})
	row("chain E2E p95 (ms)", func(e ScenarioBenchEntry) string {
		if e.Chains == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", e.ChainE2EP95VirtualMs)
	})
	row("SLO met (target ms)", func(e ScenarioBenchEntry) string {
		return fmt.Sprintf("%v (%.0f)", e.SLOMet, e.SLOTargetMs)
	})
	row("peak frames / after drain / leaked", func(e ScenarioBenchEntry) string {
		return fmt.Sprintf("%d / %d / %d", e.PeakFramesInUse, e.EndFrames, e.LeakedFrames)
	})
	return t
}
