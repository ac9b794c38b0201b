package experiments

import (
	"fmt"
	"time"

	"groundhog/internal/cluster"
	"groundhog/internal/faults"
	"groundhog/internal/isolation"
	"groundhog/internal/metrics"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
)

// ClusterBenchResult is one entry of BENCH_cluster.json: the fleetMix
// workload on a multi-host cluster under one placement policy, with a
// mid-run host failure and a later drain. One entry per built-in placer —
// the comparison the tentpole asks for (does clone cheapness favor packing
// or spreading?). LostRequests and LeakedFrames are invariants the baseline
// pins at zero; like every other field they are held to their committed
// bytes.
type ClusterBenchResult struct {
	Benchmark string  `json:"benchmark"`
	Placer    string  `json:"placer"`
	Mode      string  `json:"mode"`
	Hosts     int     `json:"hosts"`
	Functions int     `json:"functions"`
	WindowMs  float64 `json:"window_ms"`
	Seed      uint64  `json:"seed"`

	// Conservation invariants.
	Arrived      int `json:"arrived"`
	Requests     int `json:"requests"`
	LostRequests int `json:"lost_requests"`
	LeakedFrames int `json:"leaked_frames"`

	// Placement and transfer counters.
	FullColdStarts       int `json:"full_cold_starts"`
	TransferColdStarts   int `json:"transfer_cold_starts"`
	LocalCloneColdStarts int `json:"local_clone_cold_starts"`
	Transfers            int `json:"transfers"`
	TransferDedups       int `json:"transfer_dedups"`
	TransferFaults       int `json:"transfer_faults"`
	HostCrashes          int `json:"host_crashes"`
	Drained              int `json:"drained"`

	// Virtual figures: the scale-up bill (transfer share broken
	// out), the latency tail, and the cluster's memory footprint.
	ColdStartVirtualUs float64 `json:"cold_start_total_virtual_us"`
	TransferVirtualUs  float64 `json:"transfer_total_virtual_us"`
	E2EP95VirtualMs    float64 `json:"e2e_p95_virtual_ms"`
	E2EP99VirtualMs    float64 `json:"e2e_p99_virtual_ms"`
	PeakFramesInUse    int     `json:"peak_frames_in_use"`
	EndFrames          int     `json:"end_frames"`

	// PerHost is the per-host placement and memory map.
	PerHost []ClusterBenchHost `json:"per_host"`
}

// ClusterBenchHost is one host's row in a ClusterBenchResult.
type ClusterBenchHost struct {
	Host       int    `json:"host"`
	State      string `json:"state"` // "up", "failed", "drained"
	Placements int    `json:"placements"`
	PeakFrames int    `json:"host_peak_frames"`
}

// clusterPlan arms the cluster benchmark's fault plan: the faults suite's
// low ambient rates plus one scheduled image-transfer abort, so the pull
// fallback path is exercised deterministically in every run.
func clusterPlan(seed uint64) faults.Plan {
	p := faultsPlan(seed)
	p.Schedule[faults.SiteImageTransfer] = []uint64{1}
	return p
}

// clusterEvents is the benchmark's host schedule: host 2 crashes at 2/5 of
// the window (felt by the spreading placers) and host 0 — where locality
// and pack-first concentrate — drains at 7/10, so every placer is measured
// on its recovery behavior, not just its steady state. Hosts 1 and 3
// survive the whole window.
func clusterEvents(window sim.Duration) []cluster.Event {
	return []cluster.Event{
		{At: window * 2 / 5, Kind: cluster.EventHostFail, Host: 2},
		{At: window * 7 / 10, Kind: cluster.EventHostDrain, Host: 0},
	}
}

// clusterHosts is the benchmark's cluster size.
const clusterHosts = 4

// ClusterBench runs the multi-host placement benchmark: the fleetMix
// workload on a clusterHosts-host GH cluster, once per built-in placer
// (locality-aware, round-robin, pack-first), each under the same fault
// plan, host failure, and drain. Deterministic for a fixed seed; quick is
// FleetBench's reduced scale (fleetMixLoads: half window, three functions).
func ClusterBench(cfg Config, quick bool) ([]ClusterBenchResult, error) {
	loads, window, err := fleetMixLoads(quick)
	if err != nil {
		return nil, err
	}

	var out []ClusterBenchResult
	for _, placer := range cluster.Placers() {
		cc := cluster.Config{
			Cost:                     cfg.Cost,
			Mode:                     isolation.ModeGH,
			Seed:                     cfg.Seed,
			Hosts:                    clusterHosts,
			MaxContainersPerFunction: 4,
			KeepAlive:                trace.DefaultKeepAlive,
			ScaleToZeroAfter:         trace.DefaultScaleToZeroAfter,
			Window:                   window,
			Placer:                   placer,
			Faults:                   clusterPlan(cfg.Seed),
			Events:                   clusterEvents(window),
		}
		cl, err := cluster.New(cc, loads)
		if err != nil {
			return nil, err
		}
		res, err := cl.Run()
		if err != nil {
			return nil, fmt.Errorf("cluster (%s): %w", placer.Name(), err)
		}

		r := ClusterBenchResult{
			Benchmark:       "cluster-placement",
			Placer:          placer.Name(),
			Mode:            string(cc.Mode),
			Hosts:           cc.Hosts,
			Functions:       len(loads),
			WindowMs:        float64(window) / float64(time.Millisecond),
			Seed:            cfg.Seed,
			PeakFramesInUse: res.PeakFrames,
			EndFrames:       res.EndFrames,
		}
		var e2es []metrics.Recorder
		for _, fs := range res.PerFunction {
			r.Arrived += fs.Arrived
			r.Requests += fs.Requests
			r.FullColdStarts += fs.FullColdStarts
			r.TransferColdStarts += fs.TransferColdStarts
			r.LocalCloneColdStarts += fs.LocalCloneColdStarts
			r.Transfers += fs.Transfers
			r.TransferDedups += fs.TransferDedups
			r.TransferFaults += fs.TransferFaults
			r.HostCrashes += fs.EventCrashes
			r.Drained += fs.Drained
			r.ColdStartVirtualUs += float64(fs.ColdStartCost) / float64(time.Microsecond)
			r.TransferVirtualUs += float64(fs.TransferCost) / float64(time.Microsecond)
			e2es = append(e2es, fs.E2E)
		}
		e2e := metrics.Pool(e2es...)
		r.LostRequests = r.Arrived - r.Requests
		r.E2EP95VirtualMs = e2e.Percentile(95)
		r.E2EP99VirtualMs = e2e.P99()
		for _, hs := range res.PerHost {
			state := "up"
			switch {
			case hs.Failed:
				state = "failed"
			case hs.Drained:
				state = "drained"
			}
			r.PerHost = append(r.PerHost, ClusterBenchHost{
				Host:       hs.ID,
				State:      state,
				Placements: hs.Placements,
				PeakFrames: hs.PeakFrames,
			})
		}
		r.LeakedFrames = cl.Teardown()
		out = append(out, r)
	}
	return out, nil
}

// ClusterBenchTable renders the placer comparison for the console.
func ClusterBenchTable(results []ClusterBenchResult) *metrics.Table {
	if len(results) == 0 {
		return metrics.NewTable("Cluster placement: no results", "placer")
	}
	r0 := results[0]
	t := metrics.NewTable(
		fmt.Sprintf("Cluster placement: %d hosts, %d functions, %.0f ms window, host-fail + drain, seed %d",
			r0.Hosts, r0.Functions, r0.WindowMs, r0.Seed),
		"placer", "requests (lost)", "cold starts full/xfer/clone", "transfers (dedup/fault)",
		"cold cost (vms)", "E2E p95 (ms)", "peak frames", "leaked")
	for _, r := range results {
		t.AddRowf("%s\t%d (%d)\t%d/%d/%d\t%d (%d/%d)\t%.1f\t%.1f\t%d\t%d",
			r.Placer, r.Requests, r.LostRequests,
			r.FullColdStarts, r.TransferColdStarts, r.LocalCloneColdStarts,
			r.Transfers, r.TransferDedups, r.TransferFaults,
			r.ColdStartVirtualUs/1e3, r.E2EP95VirtualMs, r.PeakFramesInUse, r.LeakedFrames)
	}
	return t
}
