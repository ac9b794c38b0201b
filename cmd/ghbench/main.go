// Command ghbench regenerates the paper's tables and figures from the
// simulated testbed. Each experiment prints a text table whose rows/series
// mirror the corresponding figure; the experiments' shape criteria are
// pinned by the tests in internal/experiments.
//
// Usage:
//
//	ghbench -e fig3-left            # one experiment
//	ghbench -e all -quick           # everything, reduced scale
//	ghbench -e bench-restore        # restore hot-path microbenchmark (+JSON)
//	ghbench -list                   # enumerate experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"groundhog/internal/catalog"
	"groundhog/internal/experiments"
	"groundhog/internal/metrics"
)

// experimentNames lists the runnable experiments in presentation order.
var experimentNames = []string{
	"fig1", "fig3-left", "fig3-right", "fig4", "fig5", "fig6", "fig7", "fig8",
	"table1", "table2", "table3", "headline",
	"ablation-uffd", "ablation-coalesce", "ablation-trust", "ablation-statestore",
	"ablation-timevirt", "loadsweep", "related-work", "fleet", "bench-restore",
	"bench-coldstart", "bench-fleet", "bench-policy", "bench-faults",
	"bench-fleet-xl", "bench-cluster", "bench-scenarios",
}

func main() {
	var (
		exp   = flag.String("e", "", "experiment to run (see -list), or 'all'")
		quick = flag.Bool("quick", false, "reduced scale (fast)")
		max   = flag.Int("benchmarks", 0, "limit number of catalog benchmarks (0 = all 58)")
		seed  = flag.Uint64("seed", 1, "simulation seed")
		list  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.StringVar(&restoreJSONPath, "restore-json", "BENCH_restore.json",
		"output path for the bench-restore JSON summary (empty disables)")
	flag.StringVar(&coldstartJSONPath, "coldstart-json", "BENCH_coldstart.json",
		"output path for the bench-coldstart JSON summary (empty disables)")
	flag.StringVar(&fleetJSONPath, "fleet-json", "BENCH_fleet.json",
		"output path for the bench-fleet JSON summary (empty disables)")
	flag.StringVar(&policyJSONPath, "policy-json", "BENCH_policy.json",
		"output path for the bench-policy JSON summary (empty disables)")
	flag.StringVar(&faultsJSONPath, "faults-json", "BENCH_faults.json",
		"output path for the bench-faults JSON summary (empty disables)")
	flag.StringVar(&fleetXLJSONPath, "fleet-xl-json", "BENCH_fleet_xl.json",
		"output path for the bench-fleet-xl JSON summary (empty disables)")
	flag.StringVar(&clusterJSONPath, "cluster-json", "BENCH_cluster.json",
		"output path for the bench-cluster JSON summary (empty disables)")
	flag.StringVar(&scenariosJSONPath, "scenarios-json", "BENCH_scenarios.json",
		"output path for the bench-scenarios JSON summary (empty disables)")
	flag.Parse()

	if *list {
		for _, n := range experimentNames {
			fmt.Println(n)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "ghbench: -e <experiment> required; try -list")
		os.Exit(2)
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
		cfg.MaxBenchmarks = 0 // -benchmarks controls truncation explicitly
	}
	cfg.Seed = *seed
	if *max > 0 {
		cfg.MaxBenchmarks = *max
	}

	names := []string{*exp}
	if *exp == "all" {
		names = experimentNames
	}
	if err := run(cfg, names, *quick); err != nil {
		fmt.Fprintf(os.Stderr, "ghbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes the named experiments, computing the shared 58-benchmark
// dataset at most once.
func run(cfg experiments.Config, names []string, quick bool) error {
	var ds *experiments.Dataset
	dataset := func() (*experiments.Dataset, error) {
		if ds != nil {
			return ds, nil
		}
		fmt.Fprintln(os.Stderr, "ghbench: measuring all benchmarks under all configurations (one-time)...")
		var err error
		ds, err = experiments.RunFull(cfg)
		return ds, err
	}

	for _, name := range names {
		var (
			tb  *metrics.Table
			err error
		)
		switch strings.ToLower(name) {
		case "fig1":
			e, lerr := catalog.Lookup("get-time (p)")
			if lerr != nil {
				return lerr
			}
			tb, err = experiments.Fig1ColdStart(cfg, e.Prof)
		case "fig3-left":
			tb, err = experiments.Fig3Left(cfg)
		case "fig3-right":
			tb, err = experiments.Fig3Right(cfg)
		case "fig4":
			d, derr := dataset()
			if derr != nil {
				return derr
			}
			fmt.Println(experiments.Fig4E2E(d).Render())
			tb = experiments.Fig4Invoker(d)
		case "fig5":
			d, derr := dataset()
			if derr != nil {
				return derr
			}
			tb = experiments.Fig5(d)
		case "fig6":
			tb, err = experiments.Fig6(cfg)
		case "fig7":
			tb, err = experiments.Fig7(cfg)
		case "fig8":
			tb, err = experiments.Fig8(cfg)
		case "table1":
			d, derr := dataset()
			if derr != nil {
				return derr
			}
			tb = experiments.Table1(d)
		case "table2":
			d, derr := dataset()
			if derr != nil {
				return derr
			}
			tb = experiments.Table2(d)
		case "table3":
			d, derr := dataset()
			if derr != nil {
				return derr
			}
			tb = experiments.Table3(d)
		case "headline":
			d, derr := dataset()
			if derr != nil {
				return derr
			}
			tb = experiments.Headline(d)
		case "ablation-uffd":
			tb, err = experiments.AblationUFFD(cfg)
		case "ablation-coalesce":
			tb, err = experiments.AblationCoalesce(cfg)
		case "ablation-trust":
			tb, err = experiments.AblationTrust(cfg)
		case "loadsweep":
			tb, err = experiments.LoadSweep(cfg)
		case "ablation-statestore":
			tb, err = experiments.AblationStateStore(cfg)
		case "related-work":
			tb, err = experiments.RelatedWork(cfg)
		case "fleet":
			tb, err = experiments.Fleet(cfg)
		case "ablation-timevirt":
			tb, err = experiments.AblationTimeVirt(cfg)
		case "bench-restore":
			tb, err = benchRestore(cfg, quick)
		case "bench-coldstart":
			tb, err = benchColdStart(cfg)
		case "bench-fleet":
			tb, err = benchFleet(cfg, quick)
		case "bench-policy":
			tb, err = benchPolicy(cfg, quick)
		case "bench-faults":
			tb, err = benchFaults(cfg, quick)
		case "bench-fleet-xl":
			tb, err = benchFleetXL(cfg, quick)
		case "bench-cluster":
			tb, err = benchCluster(cfg, quick)
		case "bench-scenarios":
			tb, err = benchScenarios(cfg, quick)
		default:
			return fmt.Errorf("unknown experiment %q (try -list)", name)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println(tb.Render())
	}
	return nil
}

// writeBenchJSON marshals a benchmark summary to path (empty disables),
// logging the write; every bench-* experiment shares it so the artifact
// format cannot diverge.
func writeBenchJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	blob, err := experiments.MarshalBench(v)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ghbench: wrote %s\n", path)
	return nil
}

// restoreJSONPath is where benchRestore writes its machine-readable summary.
var restoreJSONPath string

// benchRestore runs the steady-state restore microbenchmark under both write
// trackers (soft-dirty and UFFD) and writes BENCH_restore.json — a JSON array
// with one entry per tracker — next to the console table, so CI and scripts
// can track both hot paths' wall time and allocation rate across commits.
func benchRestore(cfg experiments.Config, quick bool) (*metrics.Table, error) {
	heapPages, iters := 4096, 2000
	if quick {
		heapPages, iters = 1024, 500
	}
	res, err := experiments.RestoreBenchVariants(cfg, heapPages, 128, iters)
	if err != nil {
		return nil, err
	}
	if err := writeBenchJSON(restoreJSONPath, res); err != nil {
		return nil, err
	}
	return experiments.RestoreBenchTable(res...), nil
}

// coldstartJSONPath is where benchColdStart writes its summary.
var coldstartJSONPath string

// benchColdStart runs the snapshot-clone scale-out benchmark — full Fig. 1
// cold start vs. clone cold start under both StateStore kinds (§5.5), plus
// fleet memory at 1/4/16 containers — and writes BENCH_coldstart.json (one
// array entry per store) so CI can gate on cold-start cost and frame-sharing
// regressions. The sweep is deterministic virtual time, so quick mode needs
// no reduction.
func benchColdStart(cfg experiments.Config) (*metrics.Table, error) {
	tb, res, err := experiments.ColdStartScaleOut(cfg)
	if err != nil {
		return nil, err
	}
	if err := writeBenchJSON(coldstartJSONPath, res); err != nil {
		return nil, err
	}
	return tb, nil
}

// fleetJSONPath is where benchFleet writes its summary.
var fleetJSONPath string

// benchFleet runs the clone-aware fleet benchmark — the same bursty
// multi-function workload dispatched once with keep-alive-only scaling and
// once with snapshot-clone scale-out plus scale-to-zero image eviction — and
// writes BENCH_fleet.json so CI can gate on the fleet-level latency,
// cold-start-cost, and frame figures.
func benchFleet(cfg experiments.Config, quick bool) (*metrics.Table, error) {
	res, err := experiments.FleetBench(cfg, quick)
	if err != nil {
		return nil, err
	}
	if err := writeBenchJSON(fleetJSONPath, []experiments.FleetBenchResult{res}); err != nil {
		return nil, err
	}
	return experiments.FleetBenchTable(res), nil
}

// policyJSONPath is where benchPolicy writes its summary.
var policyJSONPath string

// benchPolicy runs the scheduling-policy benchmark — the same bursty
// multi-function workload dispatched once per policy (fixed-ttl, slo-aware,
// cost-min) on a clone-enabled fleet — and writes BENCH_policy.json so CI
// can gate on the cost/latency frontier: SLO misses and mean-frame drift
// both fail the gate.
func benchPolicy(cfg experiments.Config, quick bool) (*metrics.Table, error) {
	res, err := experiments.PolicyBench(cfg, quick)
	if err != nil {
		return nil, err
	}
	if err := writeBenchJSON(policyJSONPath, []experiments.PolicyBenchResult{res}); err != nil {
		return nil, err
	}
	return experiments.PolicyBenchTable(res), nil
}

// faultsJSONPath is where benchFaults writes its summary.
var faultsJSONPath string

// benchFaults runs the fault-injection benchmark — the bursty
// multi-function workload on a clone-enabled fleet with every fault seam
// armed at ~1% plus scheduled crash-wave/corruption/drain events — and
// writes BENCH_faults.json so CI can hold the recovery invariants:
// lost_requests and leaked_frames are identity-gated at zero, the retry
// backoff and latency tail drift-gated.
func benchFaults(cfg experiments.Config, quick bool) (*metrics.Table, error) {
	res, err := experiments.FaultsBench(cfg, quick)
	if err != nil {
		return nil, err
	}
	if err := writeBenchJSON(faultsJSONPath, []experiments.FaultsBenchResult{res}); err != nil {
		return nil, err
	}
	return experiments.FaultsBenchTable(res), nil
}

// fleetXLJSONPath is where benchFleetXL writes its summary.
var fleetXLJSONPath string

// benchFleetXL runs the million-request engine benchmark — 24 functions
// with bursty and diurnal arrival mixes on one sketch-backed
// clone-scale-out fleet — and writes BENCH_fleet_xl.json so CI can gate
// the engine itself: retained allocations per request (tight "allocs"
// rule), simulated requests/sec (one-sided floor), and the deterministic
// fleet outputs (identity/drift rules). quick shrinks the window for
// local smoke runs; the committed baseline uses the full window.
func benchFleetXL(cfg experiments.Config, quick bool) (*metrics.Table, error) {
	res, err := experiments.FleetXLBench(cfg, quick)
	if err != nil {
		return nil, err
	}
	if err := writeBenchJSON(fleetXLJSONPath, []experiments.FleetXLBenchResult{res}); err != nil {
		return nil, err
	}
	return experiments.FleetXLBenchTable(res), nil
}

// clusterJSONPath is where benchCluster writes its summary.
var clusterJSONPath string

// benchCluster runs the multi-host placement benchmark — the bursty
// multi-function workload on a 4-host GH cluster, once per placer
// (locality-aware, round-robin, pack-first), each under the same fault
// plan, a mid-run host failure, and a drain — and writes BENCH_cluster.json
// (one array entry per placer) so CI can hold the cluster invariants:
// lost_requests and leaked_frames identity-gated at zero, cold-start cost,
// transfer cost, latency tail, and frame counts drift-gated.
func benchCluster(cfg experiments.Config, quick bool) (*metrics.Table, error) {
	res, err := experiments.ClusterBench(cfg, quick)
	if err != nil {
		return nil, err
	}
	if err := writeBenchJSON(clusterJSONPath, res); err != nil {
		return nil, err
	}
	return experiments.ClusterBenchTable(res), nil
}

// scenariosJSONPath is where benchScenarios writes its summary.
var scenariosJSONPath string

// benchScenarios runs the workload-scenario benchmark — a staged chain with
// fan-out, stateful functions against the external state store, and one
// function under three runtime overlays, each on a clone-scale-out GH
// fleet — and writes BENCH_scenarios.json (one entry per scenario) so CI
// can hold the scenario invariants: chains_lost, lost_requests, and
// leaked_frames identity-gated at zero, the per-scenario slo_met booleans
// at identity, and the latency/cost tails drift-gated.
func benchScenarios(cfg experiments.Config, quick bool) (*metrics.Table, error) {
	res, err := experiments.ScenariosBench(cfg, quick)
	if err != nil {
		return nil, err
	}
	if err := writeBenchJSON(scenariosJSONPath, []experiments.ScenariosBenchResult{res}); err != nil {
		return nil, err
	}
	return experiments.ScenariosBenchTable(res), nil
}
