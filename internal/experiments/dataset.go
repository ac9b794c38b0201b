package experiments

import (
	"fmt"

	"groundhog/internal/catalog"
	"groundhog/internal/core"
	"groundhog/internal/faas"
	"groundhog/internal/isolation"
	"groundhog/internal/metrics"
	"groundhog/internal/sim"
)

// Cell holds the measurements of one (benchmark, configuration) pair — one
// cell of the paper's Table 1; Row.Cells keys it by mode.
type Cell struct {
	E2EMeanMS  float64
	E2EStdMS   float64
	InvMeanMS  float64
	InvStdMS   float64
	Throughput float64 // requests/second

	RestoreMeanMS float64
	RestorePhases [len(core.Phases)]float64 // mean ms per phase, in core.Phases order
	SnapshotMS    float64

	MappedPagesK   float64
	RestoredPagesK float64
	DirtyPagesK    float64
}

// Row is one benchmark across all applicable configurations.
type Row struct {
	Entry catalog.Entry
	Cells map[isolation.Mode]*Cell
}

// Cell returns the cell for mode, or nil when the configuration is not
// applicable (fork on Node, FAASM on Node).
func (r Row) Cell(m isolation.Mode) *Cell { return r.Cells[m] }

// Dataset is the master result set from which Figs. 4-6, Fig. 8 and
// Tables 1-3 render.
type Dataset struct {
	Rows []Row
}

// ModesFor returns the configurations evaluated for a benchmark: BASE,
// GH-NOP and GH always; FORK only for single-threaded runtimes (§5.2.3);
// FAASM only for languages that compile to WebAssembly (§5.3.3).
func ModesFor(e catalog.Entry) []isolation.Mode {
	modes := []isolation.Mode{isolation.ModeBase, isolation.ModeGHNop, isolation.ModeGH}
	if e.Prof.Lang.Threads() == 1 {
		modes = append(modes, isolation.ModeFork)
	}
	if e.Prof.Lang.WasmFactor() > 0 {
		modes = append(modes, isolation.ModeFaasm)
	}
	return modes
}

// measureCell runs the latency and throughput workloads for one
// (benchmark, mode) pair.
func (cfg Config) measureCell(e catalog.Entry, mode isolation.Mode) (*Cell, error) {
	cell := &Cell{}

	// Latency: one single-core container, closed-loop low load.
	pl, err := faas.NewPlatform(cfg.Cost, e.Prof, mode, 1, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", e.Prof.DisplayName(), mode, err)
	}
	cell.SnapshotMS = ms(pl.Containers()[0].ColdStart().StrategyInit)
	stats, err := pl.RunClosedLoop(cfg.LatencySamples, cfg.Think)
	if err != nil {
		return nil, fmt.Errorf("%s/%s latency: %w", e.Prof.DisplayName(), mode, err)
	}
	pl.Teardown()
	var e2e, inv, restore metrics.Summary
	nRestores := 0
	for _, st := range stats {
		e2e.AddDuration(st.E2E)
		inv.AddDuration(st.Invoker)
		if st.Restored {
			restore.AddDuration(st.Cleanup)
			nRestores++
			cell.MappedPagesK = float64(st.Restore.MappedPages) / 1000
			cell.RestoredPagesK = float64(st.Restore.RestoredPages) / 1000
			cell.DirtyPagesK = float64(st.Restore.DirtyPages) / 1000
			for i, d := range st.Restore.PhaseDurations {
				cell.RestorePhases[i] += ms(d)
			}
		}
	}
	cell.E2EMeanMS, cell.E2EStdMS = e2e.Mean(), e2e.Std()
	cell.InvMeanMS, cell.InvStdMS = inv.Mean(), inv.Std()
	cell.RestoreMeanMS = restore.Mean()
	if nRestores > 0 {
		for i := range cell.RestorePhases {
			cell.RestorePhases[i] /= float64(nRestores)
		}
	}

	// Throughput: saturated, N containers on N cores.
	plT, err := faas.NewPlatform(cfg.Cost, e.Prof, mode, cfg.TputContainers, cfg.Seed+7)
	if err != nil {
		return nil, err
	}
	res, err := plT.RunSaturated(cfg.TputPerContainer)
	if err != nil {
		return nil, fmt.Errorf("%s/%s tput: %w", e.Prof.DisplayName(), mode, err)
	}
	plT.Teardown()
	cell.Throughput = res.RequestsPerSec
	return cell, nil
}

// RunFull measures every catalog benchmark under every applicable
// configuration. It is the master experiment behind Figs. 4-6, Fig. 8 and
// Tables 1-3.
func RunFull(cfg Config) (*Dataset, error) { return cfg.measure(catalog.All()) }

// measure builds the Dataset of entries, one row each, in their order.
func (cfg Config) measure(entries []catalog.Entry) (*Dataset, error) {
	ds := &Dataset{}
	for _, e := range entries {
		row := Row{Entry: e, Cells: map[isolation.Mode]*Cell{}}
		for _, mode := range ModesFor(e) {
			cell, err := cfg.measureCell(e, mode)
			if err != nil {
				return nil, err
			}
			row.Cells[mode] = cell
		}
		ds.Rows = append(ds.Rows, row)
	}
	return ds, nil
}

// ms converts a duration to float milliseconds.
func ms(d sim.Duration) float64 { return float64(d) / 1e6 }
