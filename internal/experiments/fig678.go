package experiments

import (
	"fmt"

	"groundhog/internal/catalog"
	"groundhog/internal/core"
	"groundhog/internal/faas"
	"groundhog/internal/isolation"
	"groundhog/internal/metrics"
	"groundhog/internal/runtimes"
)

// Fig6 regenerates the GH-vs-FAASM restoration-duration comparison for the
// pyperformance and PolyBench suites (both compile to WebAssembly), from
// the Dataset's GH and FAASM cells.
// Expected shape: the two are comparable — within a small factor of each
// other — because restoration is not where the two systems differ most
// (§5.3.3: the latency gap is dominated by native-vs-wasm compilation).
func Fig6(ds *Dataset) *metrics.Table {
	t := metrics.NewTable("Fig. 6: restoration duration (ms), off the critical path",
		"benchmark", "suite", "gh", "faasm")
	for _, row := range ds.Rows {
		if row.Entry.Suite == catalog.SuiteFaaSProfiler {
			continue // Fig. 6 plots pyperformance and PolyBench only
		}
		t.AddRow(row.Entry.Prof.DisplayName(), string(row.Entry.Suite),
			fmt.Sprintf("%.2f", row.Cell(isolation.ModeGH).RestoreMeanMS),
			fmt.Sprintf("%.2f", row.Cell(isolation.ModeFaasm).RestoreMeanMS))
	}
	return t
}

// fig7Modes are the three configurations plotted in Fig. 7.
var fig7Modes = []isolation.Mode{isolation.ModeBase, isolation.ModeGHNop, isolation.ModeGH}

// Fig7 regenerates throughput scaling with cores (1-4) for the 14
// representative benchmarks. Expected shape: near-linear scaling for every
// configuration — each core runs an independent container with its own
// Groundhog copy (§5.3.4).
func Fig7(cfg Config) (*metrics.Table, error) { return cfg.fig7(catalog.Representative14()) }

// fig7 runs Fig. 7's core sweep on reps.
func (cfg Config) fig7(reps []catalog.Entry) (*metrics.Table, error) {
	t := metrics.NewTable("Fig. 7: throughput (req/s) scaling with cores",
		"benchmark", "mode", "1 core", "2 cores", "3 cores", "4 cores")
	for _, e := range reps {
		for _, mode := range fig7Modes {
			row := []string{e.Prof.DisplayName(), string(mode)}
			for cores := 1; cores <= 4; cores++ {
				pl, err := faas.NewPlatform(cfg.Cost, e.Prof, mode, cores, cfg.Seed+uint64(cores))
				if err != nil {
					return nil, err
				}
				res, err := pl.RunSaturated(cfg.TputPerContainer)
				if err != nil {
					return nil, err
				}
				pl.Teardown()
				row = append(row, fmt.Sprintf("%.2f", res.RequestsPerSec))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Fig8 regenerates the restoration-cost breakdown: per-phase shares of the
// restore, the page counts, and the one-time snapshot cost, from the
// Dataset's GH cells of the 14 representative benchmarks, in
// catalog.Representative14's order (sorted, like the figure, by restore
// duration). A representative the Dataset does not hold is skipped.
// Expected shape: memory restoration tracks #restored pages; page-metadata
// scanning tracks total address-space size; interrupt/regs/detach are
// visible mainly for the multi-threaded Node runtimes.
func Fig8(ds *Dataset) *metrics.Table {
	header := []string{"benchmark", "restore(ms)", "pagesK", "restoredK", "snapshot(ms)"}
	for _, ph := range core.Phases {
		header = append(header, ph+"%")
	}
	t := metrics.NewTable("Fig. 8: restoration breakdown and snapshot cost", header...)
	gh := map[string]*Cell{}
	for _, row := range ds.Rows {
		gh[row.Entry.Prof.DisplayName()] = row.Cell(isolation.ModeGH)
	}
	for _, e := range catalog.Representative14() {
		cell, ok := gh[e.Prof.DisplayName()]
		if !ok {
			continue
		}
		row := []string{
			e.Prof.DisplayName(),
			fmt.Sprintf("%.2f", cell.RestoreMeanMS),
			fmt.Sprintf("%.2f", cell.MappedPagesK),
			fmt.Sprintf("%.2f", cell.RestoredPagesK),
			fmt.Sprintf("%.1f", cell.SnapshotMS),
		}
		for _, phMS := range cell.RestorePhases {
			pct := 0.0
			if cell.RestoreMeanMS > 0 {
				pct = 100 * phMS / cell.RestoreMeanMS
			}
			row = append(row, fmt.Sprintf("%.1f", pct))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig1ColdStart reports the container life-cycle phases (Fig. 1): it is not
// an evaluation figure, but the cmd tool exposes it because the phase
// ordering (environment ≫ runtime init ≫ snapshot ≪ cold start) frames the
// whole design.
func Fig1ColdStart(cfg Config, prof runtimes.Profile) (*metrics.Table, error) {
	t := metrics.NewTable("Fig. 1: container life-cycle phases (ms)",
		"mode", "env", "runtime+data init", "strategy init", "total")
	for _, mode := range []isolation.Mode{isolation.ModeBase, isolation.ModeGH} {
		pl, err := faas.NewPlatform(cfg.Cost, prof, mode, 1, cfg.Seed)
		if err != nil {
			return nil, err
		}
		cs := pl.Containers()[0].ColdStart()
		pl.Teardown()
		t.AddRow(string(mode),
			fmt.Sprintf("%.1f", ms(cs.EnvInstantiation)),
			fmt.Sprintf("%.1f", ms(cs.RuntimeInit)),
			fmt.Sprintf("%.1f", ms(cs.StrategyInit)),
			fmt.Sprintf("%.1f", ms(cs.Total)))
	}
	return t, nil
}
