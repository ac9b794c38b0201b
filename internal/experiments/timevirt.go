package experiments

import (
	"fmt"

	"groundhog/internal/catalog"
	"groundhog/internal/faas"
	"groundhog/internal/isolation"
	"groundhog/internal/metrics"
)

// AblationTimeVirt implements and evaluates the §5.3.1 future-work proposal:
// "The problem can be alleviated by virtualizing time such that the process
// restoration resets the time to the original time of the snapshot."
// Node.js benchmarks pay a post-restore re-warm penalty (time-driven GC
// observes a jump after every rollback); with virtualized time the penalty
// disappears. Expected shape: GH+timevirt invoker latency collapses towards
// GH-NOP for the GC-sensitive Node benchmarks, most dramatically for
// img-resize(n) (+62% → a few %).
func AblationTimeVirt(cfg Config) (*metrics.Table, error) {
	return cfg.timeVirt("img-resize (n)", "base64 (n)", "json (n)", "get-time (n)", "ocr-img (n)")
}

// timeVirt runs the time-virtualization ablation on the named benchmarks.
func (cfg Config) timeVirt(names ...string) (*metrics.Table, error) {
	t := metrics.NewTable(
		"Ablation (§5.3.1 future work): time virtualization across restores (invoker latency, ms)",
		"benchmark", "base", "gh", "gh+timevirt", "gh overhead%", "timevirt overhead%")
	for _, name := range names {
		e, err := catalog.Lookup(name)
		if err != nil {
			return nil, err
		}
		measure := func(mode isolation.Mode, virtualize bool) (float64, error) {
			pl, err := faas.NewPlatform(cfg.Cost, e.Prof, mode, 1, cfg.Seed)
			if err != nil {
				return 0, err
			}
			pl.VirtualizeTime = virtualize
			stats, err := pl.RunClosedLoop(cfg.LatencySamples, cfg.Think)
			if err != nil {
				return 0, err
			}
			pl.Teardown()
			var inv metrics.Summary
			for _, st := range stats {
				inv.AddDuration(st.Invoker)
			}
			return inv.Mean(), nil
		}
		base, err := measure(isolation.ModeBase, false)
		if err != nil {
			return nil, err
		}
		gh, err := measure(isolation.ModeGH, false)
		if err != nil {
			return nil, err
		}
		ghTV, err := measure(isolation.ModeGH, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(e.Prof.DisplayName(),
			fmt.Sprintf("%.2f", base),
			fmt.Sprintf("%.2f", gh),
			fmt.Sprintf("%.2f", ghTV),
			fmt.Sprintf("%+.1f", metrics.RelOverheadPct(gh, base)),
			fmt.Sprintf("%+.1f", metrics.RelOverheadPct(ghTV, base)))
	}
	return t, nil
}
