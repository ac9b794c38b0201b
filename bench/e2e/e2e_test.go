package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"groundhog/internal/catalog"
)

// No test here asserts on wall-clock time: they check the estimator's
// arithmetic on synthetic segments, that every workload runs clean at
// -quick size, determinism, and that BENCHMARK.json and the harness agree.

// TestEstimatorRecoversKnownCost feeds the estimator segments of a known
// cost per request measured on a machine whose speed moves in plateaus of
// ±40% a few segments long. Probes and segments alternate on one timeline,
// so a probe at a plateau's edge mis-scales its neighbour; the median over
// segments must still land within 2% of the truth, where the raw median
// does not.
func TestEstimatorRecoversKnownCost(t *testing.T) {
	const (
		trueUs   = 10.0 // wall and CPU per request at reference speed
		requests = 30000
		segments = 60
	)
	r := splitmix(42)
	jitter := func(pct float64) float64 { return 1 + pct/100*(r.float()-0.5) }
	// Timeline slot 2i is probe i, slot 2i+1 is segment i+1; plateaus last
	// seven slots and sit anywhere in 0.6..1.4 of reference speed.
	slow := func(slot int) float64 {
		plateau := splitmix(uint64(slot / 7))
		return 0.6 + 0.8*plateau.float()
	}
	probe := func(i int) float64 { return CalibRefMS * slow(2*i) * jitter(1) }

	res := &runResult{e2e: map[string]float64{}}
	var raw []float64
	for i := 1; i <= segments; i++ {
		wall := trueUs * 1e3 * requests * slow(2*i-1) * jitter(2)
		res.segs = append(res.segs, segment{
			cost:  cost{requests: requests, wallNs: wall, cpuNs: wall, mallocs: 3 * requests, bytes: 1024 * requests},
			scale: scale(probe(i-1), probe(i)),
		})
		raw = append(raw, wall/requests/1e3)
	}
	res.estimate(&prober{ms: []float64{CalibRefMS}})
	for name, want := range map[string]float64{
		"cpu_us_per_req": trueUs, "lat_p50_us": trueUs, "req_per_s": 1e6 / trueUs,
		"allocs_per_req": 3, "alloc_kb_per_req": 1,
	} {
		if got := res.e2e[name]; math.Abs(got-want)/want > 0.02 {
			t.Errorf("%s = %.4f, want %.4f within 2%%", name, got, want)
		}
	}
	if rawErr := math.Abs(median(raw)-trueUs) / trueUs; rawErr < 0.02 {
		t.Errorf("raw median %.3f is within 2%% of the truth: the noise model is too gentle to test the estimator", median(raw))
	}
}

// TestQuickSmoke runs all four workloads at -quick size: zero failed
// operations, every end-to-end metric present and positive.
func TestQuickSmoke(t *testing.T) {
	p, err := newProber()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadOrder {
		res, err := runWorkload(name, runOpts{seed: 7, minSegs: 5, sz: quickSizes}, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, res.failed, res.attempted, res.errs)
		}
		for _, m := range endToEnd {
			if v := res.e2e[m.name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, m.name, v)
			}
		}
	}
}

// TestSimulatorDigests: same seed, same digest; different seed, different
// digest — the simulated statistics are checked for identity, not
// benchmarked.
func TestSimulatorDigests(t *testing.T) {
	for name, build := range simBuilders {
		digest := func(seed uint64) string {
			run, err := build(subSeed(seed, 0), quickSizes.window[name], 1)
			if err != nil {
				t.Fatal(err)
			}
			out, err := run()
			if err != nil {
				t.Fatal(err)
			}
			if out.lost != 0 {
				t.Errorf("%s seed %d lost %d requests", name, seed, out.lost)
			}
			if leaked := out.teardown(); leaked != 0 {
				t.Errorf("%s seed %d leaked %d frames", name, seed, leaked)
			}
			return out.digest
		}
		a, b, c := digest(1), digest(1), digest(2)
		if a != b {
			t.Errorf("%s: same seed gave digests %s and %s", name, a[:12], b[:12])
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", name, a[:12])
		}
	}
}

// TestWorkloadDefinitionsValidate: every catalog name resolves and every
// profile validates, as defined and as the self-check perturbs it.
func TestWorkloadDefinitionsValidate(t *testing.T) {
	for _, mix := range [][]loadSpec{simHeadMix, clusterChurnMix} {
		for _, scale := range []float64{1, profilePerturbation} {
			if _, err := loads(mix, scale); err != nil {
				t.Error(err)
			}
		}
	}
	for _, fn := range []string{liveClosedFn, liveOpenFn} {
		if _, err := catalog.Lookup(fn); err != nil {
			t.Error(err)
		}
	}
	for w, fn := range representative {
		prof, err := profileOf(fn)
		if err != nil {
			t.Errorf("%s: %v", w, err)
		} else if err := prof.Validate(); err != nil {
			t.Errorf("%s: %v", w, err)
		}
		if _, ok := ladderLoad[w]; !ok {
			t.Errorf("%s has no ladder load", w)
		}
	}
}

// TestBenchmarkJSONMatchesRegistry: the contract file and the harness name
// the same workloads and metrics, with the same units, directions and
// bounds.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench/e2e" {
		t.Errorf("paths = %v, want [bench/e2e]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: %q / %q differs from the harness's %q / %q", i, w.Name, w.Why, workloadOrder[i], workloadWhy[workloadOrder[i]])
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: %+v differs from the harness's %+v", kind, i, g, w)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound):
				t.Errorf("%s %s: bound %v, harness has %v", kind, g.Name, g.Bound, w.bound)
			case bounded && (*g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, g.Name, *g.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
}
