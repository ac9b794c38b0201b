package experiments

import (
	"fmt"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/isolation"
	"groundhog/internal/metrics"
	"groundhog/internal/runtimes"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
)

// mixEntry is one function of a fleet workload mix: a catalog benchmark by
// name, or a synthetic profile when the name is empty, with its arrival
// process.
type mixEntry struct {
	name   string
	micro  runtimes.Profile // synthetic function (name empty)
	rate   float64
	burst  float64
	amp    float64       // diurnal amplitude (0 = flat)
	period time.Duration // diurnal period
	phase  float64       // diurnal phase offset, radians
}

// mixLoads resolves a workload mix into the function loads a fleet or
// cluster is built from, in mix order.
func mixLoads(mix []mixEntry) ([]trace.FunctionLoad, error) {
	loads := make([]trace.FunctionLoad, 0, len(mix))
	for _, m := range mix {
		e := catalog.Entry{Prof: m.micro}
		if m.name != "" {
			var err error
			if e, err = catalog.Lookup(m.name); err != nil {
				return nil, err
			}
		}
		loads = append(loads, trace.FunctionLoad{
			Entry:            e,
			RatePerSec:       m.rate,
			Burstiness:       m.burst,
			DiurnalAmplitude: m.amp,
			DiurnalPeriod:    m.period,
			DiurnalPhase:     m.phase,
		})
	}
	return loads, nil
}

// fleetMix is the mixed workload of the fleet experiment: short and medium
// functions across all three runtimes, with Azure-style bursty arrivals for
// the short ones ([39]: most functions are short and bursty).
var fleetMix = []mixEntry{
	{name: "get-time (p)", rate: 40, burst: 4},
	{name: "version (p)", rate: 25, burst: 4},
	{name: "md2html (p)", rate: 12, burst: 2},
	{name: "sentiment (p)", rate: 8, burst: 2},
	{name: "bicg (c)", rate: 6, burst: 1},
	{name: "get-time (n)", rate: 15, burst: 4},
}

// fleetMixLoads returns the fleetMix loads and the simulated window every
// bursty-mix experiment runs them for. quick halves the window and keeps the
// first three functions; it changes the shape of the gated JSONs, so the
// suites take it as an explicit parameter that tracks the scale their
// baselines were generated at.
func fleetMixLoads(quick bool) ([]trace.FunctionLoad, sim.Duration, error) {
	loads, err := mixLoads(fleetMix)
	if err != nil {
		return nil, 0, err
	}
	if quick {
		return loads[:3], 2 * time.Second, nil
	}
	return loads, 4 * time.Second, nil
}

// Fleet runs the provider-level extension experiment: a shared host serving
// a mixed multi-function workload with dynamic pools and keep-alive, under
// BASE vs GH. Expected shape: identical cold-start behaviour (Groundhog
// does not change scheduling), mean latency within a few ms at these
// moderate per-function loads, restores == requests under GH, and a modest
// fleet-wide memory increase from the managers' state.
func Fleet(cfg Config) (*metrics.Table, error) {
	// A figure takes no quick parameter: the reduced scale follows the
	// catalog-truncation knob that Quick() sets.
	loads, window, err := fleetMixLoads(cfg.MaxBenchmarks > 0)
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable(
		fmt.Sprintf("Fleet (extension): %d functions on one host, dynamic pools, %v window", len(loads), window),
		"function", "mode", "requests", "cold starts", "restores", "E2E p50(ms)", "E2E p95(ms)", "queue mean(ms)")
	for _, mode := range []isolation.Mode{isolation.ModeBase, isolation.ModeGH} {
		fl, err := trace.NewFleet(trace.Config{
			Cost:                     cfg.Cost,
			Mode:                     mode,
			Seed:                     cfg.Seed,
			MaxContainersPerFunction: 3,
			KeepAlive:                1500 * time.Millisecond,
			Window:                   window,
		}, loads)
		if err != nil {
			return nil, err
		}
		res, err := fl.Run()
		if err != nil {
			return nil, err
		}
		for _, fs := range res.PerFunction {
			t.AddRow(fs.Name, string(mode),
				fmt.Sprintf("%d", fs.Requests),
				fmt.Sprintf("%d", fs.ColdStarts),
				fmt.Sprintf("%d", fs.Restores),
				fmt.Sprintf("%.1f", fs.E2E.Median()),
				fmt.Sprintf("%.1f", fs.E2E.Percentile(95)),
				fmt.Sprintf("%.2f", fs.Queue.Mean()))
		}
		t.AddRow(fmt.Sprintf("(fleet peak: %d frames)", res.PeakFrames), string(mode))
	}
	return t, nil
}
