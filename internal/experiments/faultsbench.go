package experiments

import (
	"fmt"
	"time"

	"groundhog/internal/faults"
	"groundhog/internal/metrics"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
)

// FaultsBenchResult is one entry of BENCH_faults.json: the fleetMix workload
// under an armed fault plan plus scheduled failure events. Two fields are
// invariants the baseline pins at zero — LostRequests (arrived minus served
// after the drain; recovery must never drop a request) and LeakedFrames
// (in-use frames after a full teardown; every aborted partial operation must
// release its frames). Like every other field they are held to their
// committed bytes.
type FaultsBenchResult struct {
	Benchmark string  `json:"benchmark"`
	Mode      string  `json:"mode"`
	Functions int     `json:"functions"`
	WindowMs  float64 `json:"window_ms"`
	Seed      uint64  `json:"seed"`

	// Conservation invariants.
	Arrived      int `json:"arrived"`
	Requests     int `json:"requests"`
	LostRequests int `json:"lost_requests"`
	LeakedFrames int `json:"leaked_frames"`

	// Recovery counters.
	Crashes                int `json:"crashes"`
	RestoreFaults          int `json:"restore_faults"`
	ColdStartRetries       int `json:"cold_start_retries"`
	CloneFallbacks         int `json:"clone_fallbacks"`
	ImageIntegrityFailures int `json:"image_integrity_failures"`
	DonorsQuarantined      int `json:"donors_quarantined"`
	EventCrashes           int `json:"event_crashes"`
	Drained                int `json:"drained"`
	FullColdStarts         int `json:"full_cold_starts"`
	CloneColdStarts        int `json:"clone_cold_starts"`

	// Virtual figures: the recovery bill (summed cold-start
	// retry backoff and total cold-start cost) and the latency tail, where
	// crash-and-requeue and retried cold starts surface.
	RetryBackoffVirtualUs float64 `json:"retry_backoff_virtual_us"`
	ColdStartVirtualUs    float64 `json:"cold_start_total_virtual_us"`
	E2EP95VirtualMs       float64 `json:"e2e_p95_virtual_ms"`
	E2EP99VirtualMs       float64 `json:"e2e_p99_virtual_ms"`
	E2EP999VirtualMs      float64 `json:"e2e_p999_virtual_ms"`
	PeakFramesInUse       int     `json:"peak_frames_in_use"`
}

// faultsPlan is the benchmark's fault plan: ~1% rates on the high-traffic
// sites, 0.5% on export/restore, plus two scheduled ordinals so the very
// first scale-ups exercise the clone-fallback and retry paths even in a
// short quick window.
func faultsPlan(seed uint64) faults.Plan {
	return faults.Plan{
		Seed: seed,
		Rates: map[faults.Site]float64{
			faults.SiteCloneSpawn:     0.01,
			faults.SiteColdStart:      0.01,
			faults.SiteRequestCrash:   0.01,
			faults.SiteRestore:        0.005,
			faults.SiteSnapshotExport: 0.005,
		},
		Schedule: map[faults.Site][]uint64{
			faults.SiteCloneSpawn: {2},
			faults.SiteColdStart:  {3},
		},
	}
}

// faultsEvents is the benchmark's event schedule: a fleet-wide crash wave,
// then image corruption, then a drain — the three failure-domain events the
// fleet must absorb within one window.
func faultsEvents(window sim.Duration) []trace.Event {
	return []trace.Event{
		{At: window * 2 / 5, Kind: trace.EventCrashWave},
		{At: window * 11 / 20, Kind: trace.EventCorruptImage},
		{At: window * 7 / 10, Kind: trace.EventDrain},
	}
}

// FaultsBench runs the failure-recovery benchmark: the fleetMix workload on
// a clone-scale-out GH fleet with every fault site armed (faultsPlan) and
// three scheduled failure events (faultsEvents), then a full teardown. The
// run is deterministic for a fixed seed — the fault plan draws from its own
// seeded per-site streams — so the emitted JSON is byte-stable and gated.
// quick is FleetBench's reduced scale (fleetMixLoads: half window, three
// functions).
func FaultsBench(cfg Config, quick bool) (FaultsBenchResult, error) {
	loads, window, err := fleetMixLoads(quick)
	if err != nil {
		return FaultsBenchResult{}, err
	}

	tc := fleetBenchConfig(cfg, window)
	tc.CloneScaleOut = true
	tc.Faults = faultsPlan(cfg.Seed)
	tc.Events = faultsEvents(window)
	fl, err := trace.NewFleet(tc, loads)
	if err != nil {
		return FaultsBenchResult{}, err
	}
	out, err := fl.Run()
	if err != nil {
		return FaultsBenchResult{}, fmt.Errorf("faults fleet: %w", err)
	}

	res := FaultsBenchResult{
		Benchmark:       "faults-recovery",
		Mode:            string(tc.Mode),
		Functions:       len(loads),
		WindowMs:        float64(window) / float64(time.Millisecond),
		Seed:            cfg.Seed,
		PeakFramesInUse: out.PeakFrames,
	}
	var e2es []metrics.Recorder
	for _, fs := range out.PerFunction {
		res.Arrived += fs.Arrived
		res.Requests += fs.Requests
		res.Crashes += fs.Crashes
		res.RestoreFaults += fs.RestoreFaults
		res.ColdStartRetries += fs.ColdStartRetries
		res.CloneFallbacks += fs.CloneFallbacks
		res.ImageIntegrityFailures += fs.ImageIntegrityFailures
		res.DonorsQuarantined += fs.DonorsQuarantined
		res.EventCrashes += fs.EventCrashes
		res.Drained += fs.Drained
		res.FullColdStarts += fs.FullColdStarts
		res.CloneColdStarts += fs.CloneColdStarts
		res.RetryBackoffVirtualUs += float64(fs.RetryBackoff) / float64(time.Microsecond)
		res.ColdStartVirtualUs += float64(fs.ColdStartCost) / float64(time.Microsecond)
		e2es = append(e2es, fs.E2E)
	}
	e2e := metrics.Pool(e2es...)
	res.LostRequests = res.Arrived - res.Requests
	res.E2EP95VirtualMs = e2e.Percentile(95)
	res.E2EP99VirtualMs = e2e.P99()
	res.E2EP999VirtualMs = e2e.P999()
	res.LeakedFrames = fl.Teardown()
	return res, nil
}

// FaultsBenchTable renders the recovery summary for the console.
func FaultsBenchTable(res FaultsBenchResult) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Fault injection & recovery: %d functions, %s, %.0f ms window, seed %d",
			res.Functions, res.Mode, res.WindowMs, res.Seed),
		"metric", "value")
	t.AddRowf("requests (arrived / served / lost)\t%d / %d / %d", res.Arrived, res.Requests, res.LostRequests)
	t.AddRowf("crashes (request / event) \t%d / %d", res.Crashes, res.EventCrashes)
	t.AddRowf("restore faults\t%d", res.RestoreFaults)
	t.AddRowf("cold-start retries (backoff virtual ms)\t%d (%.1f)", res.ColdStartRetries, res.RetryBackoffVirtualUs/1e3)
	t.AddRowf("clone fallbacks\t%d", res.CloneFallbacks)
	t.AddRowf("integrity failures / donors quarantined\t%d / %d", res.ImageIntegrityFailures, res.DonorsQuarantined)
	t.AddRowf("drained containers\t%d", res.Drained)
	t.AddRowf("cold starts (full / clone)\t%d / %d", res.FullColdStarts, res.CloneColdStarts)
	t.AddRowf("cold-start cost (virtual ms)\t%.1f", res.ColdStartVirtualUs/1e3)
	t.AddRowf("E2E p95 / p99 / p99.9 (ms)\t%.1f / %.1f / %.1f", res.E2EP95VirtualMs, res.E2EP99VirtualMs, res.E2EP999VirtualMs)
	t.AddRowf("peak frames\t%d", res.PeakFramesInUse)
	t.AddRowf("leaked frames after teardown\t%d", res.LeakedFrames)
	return t
}
