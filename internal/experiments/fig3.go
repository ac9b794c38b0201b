package experiments

import (
	"fmt"

	"groundhog/internal/catalog"
	"groundhog/internal/faas"
	"groundhog/internal/isolation"
	"groundhog/internal/metrics"
)

// fig3Modes are the configurations plotted in Fig. 3.
var fig3Modes = []isolation.Mode{
	isolation.ModeBase, isolation.ModeGHNop, isolation.ModeGH, isolation.ModeFork,
}

// microPoint measures the microbenchmark at one (mapped, dirty) point under
// one mode and returns (solid, dashed): the in-function latency and the
// latency including restoration stalls (§5.2.1 vs §5.2.2).
func (cfg Config) microPoint(mapped, dirty int, mode isolation.Mode) (solid, dashed float64, err error) {
	prof := catalog.Microbench(mapped, dirty)

	// Low load: think time long enough for any restore to finish.
	pl, err := faas.NewPlatform(cfg.Cost, prof, mode, 1, cfg.Seed)
	if err != nil {
		return 0, 0, err
	}
	stats, err := pl.RunClosedLoop(cfg.MicroRequests, cfg.Think*40)
	if err != nil {
		return 0, 0, err
	}
	pl.Teardown()
	var inv metrics.Summary
	for _, st := range stats {
		inv.AddDuration(st.Invoker)
	}
	solid = inv.Mean()

	// High load: back-to-back requests; the cycle time includes waiting
	// for restoration.
	plH, err := faas.NewPlatform(cfg.Cost, prof, mode, 1, cfg.Seed+3)
	if err != nil {
		return 0, 0, err
	}
	res, err := plH.RunSaturated(cfg.MicroRequests)
	if err != nil {
		return 0, 0, err
	}
	plH.Teardown()
	var cycle metrics.Summary
	for _, st := range res.Stats {
		cycle.AddDuration(st.Invoker + st.Cleanup)
	}
	dashed = cycle.Mean()
	return solid, dashed, nil
}

// Fig3Left regenerates Fig. 3 (left): latency vs. the percentage of dirtied
// pages at a fixed mapped size. Expected shape: all lines grow with the
// dirty fraction; FORK's solid line is the steepest (copying faults on the
// critical path); GH's solid line sits slightly above BASE (soft-dirty
// arming faults); GH-NOP coincides with BASE; GH's dashed line grows and its
// slope drops once dirty sets are dense enough for copy coalescing (~60%).
func Fig3Left(cfg Config) (*metrics.Table, error) {
	t := metrics.NewTable(
		fmt.Sprintf("Fig. 3 (left): latency (ms) vs %% pages dirtied; %d mapped pages", cfg.MicroMappedPages),
		"dirty%", "base", "gh-nop", "gh", "fork", "base+rest", "gh-nop+rest", "gh+rest", "fork+rest")
	for pct := 0; pct <= 100; pct += 10 {
		dirty := cfg.MicroMappedPages * pct / 100
		row := []string{fmt.Sprintf("%d", pct)}
		var dashedCols []string
		for _, mode := range fig3Modes {
			solid, dashed, err := cfg.microPoint(cfg.MicroMappedPages, dirty, mode)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", solid))
			dashedCols = append(dashedCols, fmt.Sprintf("%.2f", dashed))
		}
		t.AddRow(append(row, dashedCols...)...)
	}
	return t, nil
}

// Fig3Right regenerates Fig. 3 (right): latency vs. address-space size at a
// fixed 1 K-page dirty set. Expected shape: BASE/GH/GH-NOP solid lines are
// flat-ish (in-function cost depends on the dirty set, with a mild
// page-scan term); FORK grows linearly (first-touch cost on every mapped
// page); GH's dashed line grows linearly (whole-address-space pagemap scan).
func Fig3Right(cfg Config) (*metrics.Table, error) {
	const dirty = 1000
	t := metrics.NewTable(
		"Fig. 3 (right): latency (ms) vs address-space size (pages); 1K pages dirtied",
		"pages", "base", "gh-nop", "gh", "fork", "base+rest", "gh-nop+rest", "gh+rest", "fork+rest")
	for _, frac := range []int{1, 2, 5, 10, 20, 50, 100} {
		mapped := cfg.MicroMappedPages * frac / 100
		if mapped < dirty+64 {
			mapped = dirty + 64
		}
		row := []string{fmt.Sprintf("%d", mapped)}
		var dashedCols []string
		for _, mode := range fig3Modes {
			solid, dashed, err := cfg.microPoint(mapped, dirty, mode)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", solid))
			dashedCols = append(dashedCols, fmt.Sprintf("%.2f", dashed))
		}
		t.AddRow(append(row, dashedCols...)...)
	}
	return t, nil
}
