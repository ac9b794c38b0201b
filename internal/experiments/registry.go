package experiments

import (
	"strings"

	"groundhog/internal/catalog"
	"groundhog/internal/metrics"
)

// Experiment is one entry of Registry: something cmd/ghbench can run by
// name. The paper's figures and tables only print; the repository's own
// benchmark suites also yield a JSON artifact — the bytes a seeded
// simulation produces — that must equal its baseline in bench/baselines/
// byte for byte: tier-1 reproduces the -quick-scale ones, CI all of them.
type Experiment struct {
	Name string
	// Artifact is the BENCH_*.json file a suite's JSON value is written to,
	// under the same name in ghbench's -out directory and in
	// bench/baselines/. Empty for figures and tables.
	Artifact string
	// FullWindow marks a suite whose committed baseline was generated
	// without -quick; every other suite's baseline is its -quick output.
	FullWindow bool
	// Run measures the experiment. The value is the artifact's content
	// (nil without an Artifact), already wrapped in the array every
	// BENCH_*.json is.
	Run func(cfg Config, quick bool) (any, *metrics.Table, error)
	// View renders an experiment that is a view of the shared 58-benchmark
	// Dataset, which the caller measures once (RunFull) however many views
	// it prints. Exactly one of Run and View is set.
	View func(*Dataset) []*metrics.Table
}

// Registry lists every runnable experiment in presentation order. It is the
// only list: ghbench's -e, -list, all and bench-all, the tier-1 baseline
// tests and (through bench-all) the CI gate all range over it, so a new
// suite is one entry here plus its driver file and its baseline.
var Registry = []Experiment{
	{Name: "fig1", Run: figure(func(cfg Config) (*metrics.Table, error) {
		e, err := catalog.Lookup("get-time (p)")
		if err != nil {
			return nil, err
		}
		return Fig1ColdStart(cfg, e.Prof)
	})},
	{Name: "fig3-left", Run: figure(Fig3Left)},
	{Name: "fig3-right", Run: figure(Fig3Right)},
	{Name: "fig4", View: func(d *Dataset) []*metrics.Table {
		return []*metrics.Table{Fig4E2E(d), Fig4Invoker(d)}
	}},
	{Name: "fig5", View: view(Fig5)},
	{Name: "fig6", View: view(Fig6)},
	{Name: "fig7", Run: figure(Fig7)},
	{Name: "fig8", View: view(Fig8)},
	{Name: "table1", View: view(Table1)},
	{Name: "table2", View: view(Table2)},
	{Name: "table3", View: view(Table3)},
	{Name: "headline", View: view(Headline)},
	{Name: "ablation-uffd", Run: figure(AblationUFFD)},
	{Name: "ablation-coalesce", Run: figure(AblationCoalesce)},
	{Name: "ablation-trust", Run: figure(AblationTrust)},
	{Name: "ablation-statestore", Run: figure(AblationStateStore)},
	{Name: "ablation-timevirt", Run: figure(AblationTimeVirt)},
	{Name: "loadsweep", Run: figure(LoadSweep)},
	{Name: "related-work", Run: figure(RelatedWork)},
	{Name: "fleet", Run: figure(Fleet)},

	// One array entry per write tracker.
	{Name: "bench-restore", Artifact: "BENCH_restore.json",
		Run: func(cfg Config, quick bool) (any, *metrics.Table, error) {
			heapPages, iters := 4096, 2000
			if quick {
				heapPages, iters = 1024, 500
			}
			res, err := RestoreBenchVariants(cfg, heapPages, 128, iters)
			if err != nil {
				return nil, nil, err
			}
			return res, RestoreBenchTable(res...), nil
		}},
	// One array entry per state store. The sweep is deterministic virtual
	// time, so quick needs no reduction.
	{Name: "bench-coldstart", Artifact: "BENCH_coldstart.json",
		Run: func(cfg Config, _ bool) (any, *metrics.Table, error) {
			tb, res, err := ColdStartScaleOut(cfg)
			return res, tb, err
		}},
	{Name: "bench-fleet", Artifact: "BENCH_fleet.json",
		Run: single(FleetBench, FleetBenchTable)},
	{Name: "bench-policy", Artifact: "BENCH_policy.json",
		Run: single(PolicyBench, PolicyBenchTable)},
	{Name: "bench-faults", Artifact: "BENCH_faults.json",
		Run: single(FaultsBench, FaultsBenchTable)},
	// Full window on purpose: reached_million_requests only means something
	// at the real size. Too long for tier-1 (~16 s), so CI's bench-all is
	// what holds this one to its baseline.
	{Name: "bench-fleet-xl", Artifact: "BENCH_fleet_xl.json", FullWindow: true,
		Run: single(FleetXLBench, FleetXLBenchTable)},
	// One array entry per placer.
	{Name: "bench-cluster", Artifact: "BENCH_cluster.json",
		Run: func(cfg Config, quick bool) (any, *metrics.Table, error) {
			res, err := ClusterBench(cfg, quick)
			if err != nil {
				return nil, nil, err
			}
			return res, ClusterBenchTable(res), nil
		}},
	{Name: "bench-scenarios", Artifact: "BENCH_scenarios.json",
		Run: single(ScenariosBench, ScenariosBenchTable)},
}

// Lookup returns the registry entry with the given name, ignoring case.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry {
		if strings.EqualFold(e.Name, name) {
			return e, true
		}
	}
	return Experiment{}, false
}

// figure adapts a figure or table that prints and writes no artifact.
func figure(f func(Config) (*metrics.Table, error)) func(Config, bool) (any, *metrics.Table, error) {
	return func(cfg Config, _ bool) (any, *metrics.Table, error) {
		tb, err := f(cfg)
		return nil, tb, err
	}
}

// view adapts a Dataset view that renders one table.
func view(f func(*Dataset) *metrics.Table) func(*Dataset) []*metrics.Table {
	return func(d *Dataset) []*metrics.Table { return []*metrics.Table{f(d)} }
}

// single adapts a suite that yields one result object; its artifact is that
// object as a one-element array, the shape every BENCH_*.json has.
func single[R any](bench func(Config, bool) (R, error), table func(R) *metrics.Table) func(Config, bool) (any, *metrics.Table, error) {
	return func(cfg Config, quick bool) (any, *metrics.Table, error) {
		res, err := bench(cfg, quick)
		if err != nil {
			return nil, nil, err
		}
		return []R{res}, table(res), nil
	}
}
