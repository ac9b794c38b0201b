package experiments

import (
	"fmt"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/faas"
	"groundhog/internal/isolation"
	"groundhog/internal/metrics"
	"groundhog/internal/trace"
)

// LoadSweep backs the paper's load argument (§2, §4: "Groundhog restores
// state between activations ... and therefore does not contribute to a
// function's activation latency under low to medium server load"): it
// subjects BASE and GH to Poisson arrivals at a growing fraction of the
// container's capacity and reports client-observed latency. Expected shape:
// GH's mean E2E tracks BASE until utilization approaches the point where
// exec+restore saturates the container, after which GH's queueing delay
// grows first.
//
// Each (load, mode) point is a one-function fleet capped at one container
// that is never reaped within the window, so BASE and GH see the same
// arrival trace and the fleet's FIFO queue does the rest.
func LoadSweep(cfg Config) (*metrics.Table, error) {
	e, err := catalog.Lookup("sentiment (p)")
	if err != nil {
		return nil, err
	}
	prof := e.Prof

	// Estimate single-container BASE capacity from one saturated run.
	plCap, err := faas.NewPlatform(cfg.Cost, prof, isolation.ModeBase, 1, cfg.Seed)
	if err != nil {
		return nil, err
	}
	capRes, err := plCap.RunSaturated(cfg.TputPerContainer)
	if err != nil {
		return nil, err
	}
	plCap.Teardown()
	capacity := capRes.RequestsPerSec

	t := metrics.NewTable(
		fmt.Sprintf("Load sweep (%s, 1 container, capacity ≈ %.0f req/s): E2E latency under Poisson load",
			prof.DisplayName(), capacity),
		"load%", "base mean(ms)", "base p95(ms)", "gh mean(ms)", "gh p95(ms)", "gh queue(ms)")
	window := 2 * time.Second
	for _, pct := range []int{10, 30, 50, 70, 85, 95, 110} {
		rate := capacity * float64(pct) / 100
		row := []string{fmt.Sprintf("%d", pct)}
		var ghQueue float64
		for _, mode := range []isolation.Mode{isolation.ModeBase, isolation.ModeGH} {
			fl, err := trace.NewFleet(trace.Config{
				Cost:                     cfg.Cost,
				Mode:                     mode,
				Seed:                     cfg.Seed + uint64(pct),
				MaxContainersPerFunction: 1,
				KeepAlive:                window,
				Window:                   window,
			}, []trace.FunctionLoad{{Entry: e, RatePerSec: rate, Burstiness: 1}})
			if err != nil {
				return nil, err
			}
			res, err := fl.Run()
			if err != nil {
				return nil, err
			}
			fl.Teardown()
			st := res.PerFunction[0]
			row = append(row, fmt.Sprintf("%.2f", st.E2E.Mean()), fmt.Sprintf("%.2f", st.E2E.Percentile(95)))
			if mode == isolation.ModeGH {
				ghQueue = st.Queue.Mean()
			}
		}
		row = append(row, fmt.Sprintf("%.2f", ghQueue))
		t.AddRow(row...)
	}
	return t, nil
}

// AblationTrust evaluates the §4.4 trusted-caller optimization: GH with and
// without restore skipping, under caller sequences of decreasing locality.
// Expected shape: with all requests from one caller the optimization
// recovers almost all of GH's latency gap to GH-NOP; with alternating
// callers it degenerates to (slightly worse than) plain GH because every
// deferred restore lands on the next request's critical path.
func AblationTrust(cfg Config) (*metrics.Table, error) {
	e, err := catalog.Lookup("md2html (p)")
	if err != nil {
		return nil, err
	}
	prof := e.Prof
	n := cfg.LatencySamples * 2
	if n < 8 {
		n = 8
	}

	patterns := []struct {
		name    string
		callers func(i int) string
	}{
		{"same-caller", func(i int) string { return "alice" }},
		{"pairs", func(i int) string { return fmt.Sprintf("u%d", i/2%4) }},
		{"alternating", func(i int) string { return fmt.Sprintf("u%d", i%2) }},
	}

	t := metrics.NewTable("Ablation (§4.4): trusted-caller restore skipping (GH)",
		"caller pattern", "trust mean E2E(ms)", "no-trust mean E2E(ms)", "restores/req (trust)")
	for _, pat := range patterns {
		callers := make([]string, n)
		for i := range callers {
			callers[i] = pat.callers(i)
		}
		var cells []string
		var restoresPerReq float64
		for _, trust := range []bool{true, false} {
			pl, err := faas.NewPlatform(cfg.Cost, prof, isolation.ModeGH, 1, cfg.Seed)
			if err != nil {
				return nil, err
			}
			pl.TrustSameCaller = trust
			stats, err := pl.RunCallers(callers, cfg.Think)
			if err != nil {
				return nil, err
			}
			pl.Teardown()
			var e2e metrics.Summary
			restores := 0
			for _, st := range stats {
				e2e.AddDuration(st.E2E)
				if st.Restored || st.PreRestore > 0 {
					restores++
				}
			}
			cells = append(cells, fmt.Sprintf("%.2f", e2e.Mean()))
			if trust {
				restoresPerReq = float64(restores) / float64(len(stats))
			}
		}
		t.AddRow(pat.name, cells[0], cells[1], fmt.Sprintf("%.2f", restoresPerReq))
	}
	return t, nil
}
