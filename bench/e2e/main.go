// Command e2e is the repository's benchmark: four workloads driven through
// the public functions of trace, cluster, server and gateway, seven
// end-to-end metrics per workload, and a per-layer ladder on traced runs.
// BENCHMARK.json at the repository root names it; README.md in this
// directory says what every number means.
//
//	go run -C bench/e2e . [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//	                      [-selfcheck] [-quick] [-cpuprofile F] [-memprofile F] [-out DIR]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
)

// gcSafetyLimit bounds the heap a segment may grow before the collector
// steps in anyway; the largest segment (cluster-churn) allocates ~0.5 GiB.
const gcSafetyLimit = 2 << 30

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run (default: all four, in order)")
	seed := flag.Uint64("seed", 1, "workload seed: same seed, same inputs")
	seconds := flag.Float64("seconds", 24, "how long the measured segments last")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer ladder and span log instead of the end-to-end metrics")
	selfcheck := flag.Bool("selfcheck", false, "per workload: an A/A pair that must agree and a perturbed run that must be detected")
	quick := flag.Bool("quick", false, "5 short segments per workload (smoke test; numbers are not comparable)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile at exit to this file")
	outDir := flag.String("out", filepath.Join("bench", "e2e", "out"), "directory for span logs and result JSON")
	flag.Parse()

	// The workloads are sized for two cores: one for the program, one for
	// the harness's clients and the runtime's background work.
	runtime.GOMAXPROCS(2)
	// The collector runs between segments, when the harness forces it, and
	// not inside them (unless the heap passes gcSafetyLimit): when a
	// concurrent cycle happens to start, and how much freed memory the
	// scavenger has handed back to the OS by then, was the largest source of
	// run-to-run variance the harness controls. What the collector would
	// have had to do is reported as allocs_per_req and alloc_kb_per_req.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(gcSafetyLimit)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
				return
			}
			defer f.Close()
			_ = pprof.Lookup("allocs").WriteTo(f, 0)
		}()
	}

	names := workloadOrder
	if *workload != "" {
		names = []string{*workload}
	}
	p, err := newProber()
	if err != nil {
		return fatal(err)
	}
	defer p.close()
	p.probe() // first touch of the buffer is not a measurement
	p.ms = p.ms[:0]

	o := runOpts{seed: *seed, seconds: *seconds, minSegs: 5}
	if *quick {
		o.seconds, o.sz = 0, quickSizes
	}
	if *selfcheck {
		return selfCheck(names, o, p)
	}
	code := 0
	for _, name := range names {
		var rep report
		if *trace != 0 {
			rep, err = tracedRun(name, o, p, *outDir)
		} else {
			rep, err = untracedRun(name, o, p)
		}
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", name, err))
		}
		rep.print(name)
		if !rep.Correct {
			code = 1
		}
		p.ms = p.ms[:0]
	}
	return code
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	return 2
}

// report is the last line of a run's output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	lines []metricLine // every figure, diagnostics included, in print order
	errs  []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rep *report) print(workload string) {
	for _, l := range rep.lines {
		fmt.Printf("%s.%s %.6g %s\n", workload, l.name, l.value, l.unit)
	}
	for _, e := range rep.errs {
		fmt.Printf("%s.check_failed %s\n", workload, e)
	}
	line, _ := json.Marshal(rep) // a map of plain structs cannot fail to encode
	fmt.Println(string(line))
}

// untracedRun measures the end-to-end metrics.
func untracedRun(name string, o runOpts, p *prober) (report, error) {
	res, err := runWorkload(name, o, p)
	if err != nil {
		return report{}, err
	}
	rep := report{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}, errs: res.errs}
	for _, m := range endToEnd {
		rep.Metrics[m.name] = metricValue{res.e2e[m.name], m.unit}
		rep.lines = append(rep.lines, metricLine{m.name, res.e2e[m.name], m.unit})
	}
	rep.lines = append(rep.lines, res.diag...)
	rep.lines = append(rep.lines,
		metricLine{"ops_attempted", float64(res.attempted), "count"},
		metricLine{"ops_failed", float64(res.failed), "count"})
	if res.digest != "" {
		fmt.Printf("%s.digest %s sha256\n", name, res.digest)
	}
	rep.Correct = res.failed == 0
	return rep, nil
}
