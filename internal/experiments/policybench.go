package experiments

import (
	"fmt"
	"time"

	"groundhog/internal/metrics"
	"groundhog/internal/trace"
)

// PolicyBenchSLOTargetMs is the per-function p95 E2E target the policy
// benchmark configures — comfortably above the clone fleet's observed p95
// on the bursty mix, so an SLO-aware policy has real room to trade warm
// memory for latency, and a miss is a regression, not noise.
const PolicyBenchSLOTargetMs = 100

// PolicyBenchVariant is one scheduling policy's outcome under the shared
// bursty arrival trace, as emitted into BENCH_policy.json. Every field is a
// deterministic simulation output, held to its committed bytes.
type PolicyBenchVariant struct {
	Policy string `json:"policy"`
	FleetVariantStats
	// SLOMet reports whether every function's p95 E2E stayed at or under
	// its target (a policy that starts missing the SLO fails the gate).
	SLOMet bool `json:"slo_met"`
	// WorstFnP95VirtualMs is the largest per-function p95 — the figure
	// SLOMet is judged on (the pooled p95 can hide one bad function).
	WorstFnP95VirtualMs float64 `json:"worst_fn_p95_virtual_ms"`
	// MeanFramesInUse is the time-weighted mean of in-use frames over the
	// window — the memory bill the adaptive policies lower.
	MeanFramesInUse float64 `json:"mean_frames_in_use"`
}

// PolicyBenchResult compares the three scheduling policies under identical
// bursty arrivals on a clone-enabled fleet. One entry of BENCH_policy.json.
type PolicyBenchResult struct {
	Benchmark   string               `json:"benchmark"`
	Mode        string               `json:"mode"`
	Functions   int                  `json:"functions"`
	WindowMs    float64              `json:"window_ms"`
	SLOTargetMs float64              `json:"slo_target_ms"`
	Policies    []PolicyBenchVariant `json:"policies"`
	// FrameSavingsX is FixedTTL's mean frames over SLOAware's.
	FrameSavingsX float64 `json:"mean_frames_fixed_over_slo"`
}

// PolicyBench runs the policy-frontier benchmark: the fleetMix workload
// (bursty, Azure-style arrivals) once per scheduling policy with the same
// seed on a clone-enabled fleet, so the only variable is when the fleet
// scales. Arrivals are independent of dispatch, so every policy serves
// exactly the same request trace. quick halves the window and truncates the
// mix (fleetMixLoads).
func PolicyBench(cfg Config, quick bool) (PolicyBenchResult, error) {
	loads, window, err := fleetMixLoads(quick)
	if err != nil {
		return PolicyBenchResult{}, err
	}

	base := fleetBenchConfig(cfg, window)
	res := PolicyBenchResult{
		Benchmark:   "fleet-policy-bursty-mix",
		Mode:        string(base.Mode),
		Functions:   len(loads),
		WindowMs:    float64(window) / float64(time.Millisecond),
		SLOTargetMs: PolicyBenchSLOTargetMs,
	}
	for _, pol := range trace.DefaultPolicies() {
		tc := base
		tc.CloneScaleOut = true
		tc.Policy = pol
		tc.SLOTargetMs = PolicyBenchSLOTargetMs
		fl, err := trace.NewFleet(tc, loads)
		if err != nil {
			return PolicyBenchResult{}, err
		}
		out, err := fl.Run()
		if err != nil {
			return PolicyBenchResult{}, fmt.Errorf("%s fleet: %w", pol.Name(), err)
		}
		res.Policies = append(res.Policies, summarizePolicy(pol.Name(), out, PolicyBenchSLOTargetMs))
	}
	if slo := res.variant("slo-aware"); slo != nil && slo.MeanFramesInUse > 0 {
		if fixed := res.variant("fixed-ttl"); fixed != nil {
			res.FrameSavingsX = fixed.MeanFramesInUse / slo.MeanFramesInUse
		}
	}
	return res, nil
}

// variant returns the named policy's summary, or nil.
func (r *PolicyBenchResult) variant(name string) *PolicyBenchVariant {
	for i := range r.Policies {
		if r.Policies[i].Policy == name {
			return &r.Policies[i]
		}
	}
	return nil
}

// summarizePolicy folds per-function stats into one policy summary. Pooled
// percentiles match a provider's fleet SLO report; the per-function worst
// p95 judges the SLO, since a target is promised per function.
func summarizePolicy(name string, out *trace.Result, targetMs float64) PolicyBenchVariant {
	v := PolicyBenchVariant{
		Policy:            name,
		FleetVariantStats: summarizeVariantStats(out),
		SLOMet:            true,
		MeanFramesInUse:   out.MeanFrames,
	}
	for _, fs := range out.PerFunction {
		p95 := fs.E2E.Percentile(95)
		if p95 > v.WorstFnP95VirtualMs {
			v.WorstFnP95VirtualMs = p95
		}
		if targetMs > 0 && p95 > targetMs {
			v.SLOMet = false
		}
	}
	return v
}

// PolicyBenchTable renders the comparison for the console.
func PolicyBenchTable(res PolicyBenchResult) *metrics.Table {
	header := []string{"metric"}
	for _, p := range res.Policies {
		header = append(header, p.Policy)
	}
	t := metrics.NewTable(
		fmt.Sprintf("Scheduling policies: %d functions, %s, %.0f ms window, p95 target %.0f ms (fixed-ttl holds %.1fx the slo-aware fleet's mean frames)",
			res.Functions, res.Mode, res.WindowMs, res.SLOTargetMs, res.FrameSavingsX),
		header...)
	row := func(name string, f func(PolicyBenchVariant) string) {
		cells := []string{name}
		for _, p := range res.Policies {
			cells = append(cells, f(p))
		}
		t.AddRow(cells...)
	}
	row("requests", func(v PolicyBenchVariant) string { return fmt.Sprintf("%d", v.Requests) })
	row("full / clone cold starts", func(v PolicyBenchVariant) string {
		return fmt.Sprintf("%d / %d", v.FullColdStarts, v.CloneColdStarts)
	})
	row("cold-start cost (virtual ms)", func(v PolicyBenchVariant) string { return fmt.Sprintf("%.1f", v.ColdStartVirtualUs/1e3) })
	row("E2E p50 (ms)", func(v PolicyBenchVariant) string { return fmt.Sprintf("%.1f", v.E2EP50VirtualMs) })
	row("E2E p95 (ms)", func(v PolicyBenchVariant) string { return fmt.Sprintf("%.1f", v.E2EP95VirtualMs) })
	row("worst-function p95 (ms)", func(v PolicyBenchVariant) string { return fmt.Sprintf("%.1f", v.WorstFnP95VirtualMs) })
	row("SLO met", func(v PolicyBenchVariant) string { return fmt.Sprintf("%v", v.SLOMet) })
	row("mean frames", func(v PolicyBenchVariant) string { return fmt.Sprintf("%.0f", v.MeanFramesInUse) })
	row("peak frames", func(v PolicyBenchVariant) string { return fmt.Sprintf("%d", v.PeakFramesInUse) })
	row("frames after drain", func(v PolicyBenchVariant) string { return fmt.Sprintf("%d", v.EndFrames) })
	row("reaped / scaled-to-zero / evicted", func(v PolicyBenchVariant) string {
		return fmt.Sprintf("%d / %d / %d", v.Reaped, v.ScaledToZero, v.ImagesEvicted)
	})
	return t
}
