// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): the microbenchmark latency sweeps (Fig. 3), the
// 58-benchmark latency and throughput comparisons (Figs. 4, 5; Tables 1-3),
// the GH-vs-FAASM restoration comparison (Fig. 6), core scaling (Fig. 7),
// the restoration-cost breakdown (Fig. 8), the headline aggregates quoted in
// the abstract, and two ablations (soft-dirty vs UFFD tracking, restore-copy
// coalescing).
//
// Every experiment returns rendered text tables whose rows/series mirror the
// paper's; the package's tests record the shape criteria each must satisfy.
package experiments

import (
	"time"

	"groundhog/internal/kernel"
	"groundhog/internal/sim"
)

// Config scales the experiments. Defaults reproduce the full figures;
// Quick() shrinks sample counts for the tests and `ghbench -quick`.
type Config struct {
	Cost kernel.CostModel
	Seed uint64

	// LatencySamples is the number of measured requests per latency cell
	// (the paper averages 1,200; shapes stabilize far earlier).
	LatencySamples int
	// Think is the closed-loop client's delay between response and next
	// request (the "low load" gap that lets restoration finish).
	Think sim.Duration
	// TputContainers and TputPerContainer size the saturation runs
	// (the paper uses 4 containers on a 4-core VM).
	TputContainers   int
	TputPerContainer int
	// MicroMappedPages is the microbenchmark's address-space size
	// (100 K pages in §5.2).
	MicroMappedPages int
	// MicroRequests is the number of measured requests per microbenchmark
	// point.
	MicroRequests int
	// MaxBenchmarks optionally truncates the catalog (0 = all 58); used by
	// the quick benchmarks.
	MaxBenchmarks int
}

// Default returns the full-scale configuration.
func Default() Config {
	return Config{
		Cost:             kernel.Default(),
		Seed:             1,
		LatencySamples:   12,
		Think:            30 * time.Millisecond,
		TputContainers:   4,
		TputPerContainer: 8,
		MicroMappedPages: 100_000,
		MicroRequests:    8,
	}
}

// Quick returns a configuration small enough for unit tests and testing.B
// benchmarks while preserving every experiment's structure.
func Quick() Config {
	cfg := Default()
	cfg.LatencySamples = 4
	cfg.TputContainers = 2
	cfg.TputPerContainer = 3
	cfg.MicroMappedPages = 12_000
	cfg.MicroRequests = 3
	cfg.MaxBenchmarks = 8
	return cfg
}
