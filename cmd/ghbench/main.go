// Command ghbench regenerates the paper's tables and figures from the
// simulated testbed, and runs the repository's own benchmark suites. Each
// experiment prints a text table whose rows/series mirror the corresponding
// figure; a bench-* suite also writes its BENCH_*.json artifact into the
// -out directory. The experiments, their artifacts and the scale each
// committed baseline was generated at are experiments.Registry; their shape
// criteria are pinned by the tests in internal/experiments.
//
// Usage:
//
//	ghbench -e fig3-left            # one experiment
//	ghbench -e all -quick           # everything, reduced scale
//	ghbench -e bench-restore        # one suite: table + ./BENCH_restore.json
//	ghbench -e bench-all -out DIR   # every suite at its baseline's scale, as CI runs them
//	ghbench -list                   # enumerate experiments
//	ghbench -e all -quick -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"

	"groundhog/internal/experiments"
	"groundhog/internal/metrics"
)

func main() {
	var (
		exp   = flag.String("e", "", "experiment to run (see -list), 'all', or 'bench-all' (every bench-* suite at its baseline's scale, whatever -quick says)")
		quick = flag.Bool("quick", false, "reduced scale (fast)")
		max   = flag.Int("benchmarks", 0, "limit number of catalog benchmarks (0 = all 58)")
		seed  = flag.Uint64("seed", 1, "simulation seed")
		list  = flag.Bool("list", false, "list experiments and exit")
		out   = flag.String("out", ".", "directory the bench-* suites write their BENCH_*.json into")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile at exit to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry {
			fmt.Println(e.Name)
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
	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err == nil {
		err = run(cfg, *exp, *quick, *out)
		if perr := stop(); err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ghbench: %v\n", err)
		os.Exit(1)
	}
}

// startProfiles starts a CPU profile into cpuPath and returns the function
// that ends it and writes the allocation profile (every allocation since the
// process started, live or not) into memPath. An empty path skips that
// profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}

// run executes the named experiment, every experiment ("all") or every suite
// ("bench-all"), measuring the shared 58-benchmark dataset at most once and
// writing each suite's artifact into outDir.
func run(cfg experiments.Config, name string, quick bool, outDir string) error {
	todo := experiments.Registry
	benchAll := name == "bench-all"
	if name != "all" && !benchAll {
		e, ok := experiments.Lookup(name)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", name)
		}
		todo = []experiments.Experiment{e}
	}

	var ds *experiments.Dataset
	for _, e := range todo {
		scale := quick
		if benchAll {
			if e.Artifact == "" {
				continue
			}
			scale = !e.FullWindow
		}
		var tables []*metrics.Table
		if e.View == nil {
			v, tb, err := e.Run(cfg, scale)
			if err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			if e.Artifact != "" {
				if err := writeArtifact(filepath.Join(outDir, e.Artifact), v); err != nil {
					return fmt.Errorf("%s: %w", e.Name, err)
				}
			}
			tables = []*metrics.Table{tb}
		} else {
			if ds == nil {
				fmt.Fprintln(os.Stderr, "ghbench: measuring all benchmarks under all configurations (one-time)...")
				var err error
				if ds, err = experiments.RunFull(cfg); err != nil {
					return err
				}
			}
			tables = e.View(ds)
		}
		for _, tb := range tables {
			fmt.Println(tb.Render())
		}
	}
	return nil
}

// writeArtifact writes a suite's JSON value through experiments.MarshalBench,
// the encoding the tier-1 baseline test compares with, creating the output
// directory if needed.
func writeArtifact(path string, v any) error {
	blob, err := experiments.MarshalBench(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "ghbench: wrote %s\n", path)
	return nil
}
