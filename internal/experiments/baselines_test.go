package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickBaselinesReproduce runs the five dispatcher-bound suites with the
// configuration `ghbench -e bench-<suite> -quick` uses, marshals each summary
// as ghbench does, and compares the bytes with the committed baseline. CI's
// sha256 step proves the baseline files were not edited; this proves the code
// still produces them — a change to the dispatcher, the cluster's placement
// ladder or anything under them that moves a deterministic output fails here,
// in tier-1, before any benchdiff tolerance can absorb it.
func TestQuickBaselinesReproduce(t *testing.T) {
	cfg := Quick()
	cfg.MaxBenchmarks = 0 // ghbench: -benchmarks controls truncation explicitly
	cfg.Seed = 1          // ghbench's -seed default

	suites := []struct {
		name string
		run  func() (any, error)
	}{
		{"fleet", func() (any, error) {
			res, err := FleetBench(cfg, true)
			return []FleetBenchResult{res}, err
		}},
		{"policy", func() (any, error) {
			res, err := PolicyBench(cfg, true)
			return []PolicyBenchResult{res}, err
		}},
		{"faults", func() (any, error) {
			res, err := FaultsBench(cfg, true)
			return []FaultsBenchResult{res}, err
		}},
		{"cluster", func() (any, error) { return ClusterBench(cfg, true) }},
		{"scenarios", func() (any, error) {
			res, err := ScenariosBench(cfg, true)
			return []ScenariosBenchResult{res}, err
		}},
	}
	for _, s := range suites {
		t.Run(s.name, func(t *testing.T) {
			path := filepath.Join("..", "..", "bench", "baselines", "BENCH_"+s.name+".json")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := MarshalBench(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("bench-%s -quick no longer reproduces %s byte-for-byte (run `go run ./cmd/ghbench -e bench-%s -quick` and diff)",
					s.name, path, s.name)
			}
		})
	}
}
