package cluster

import (
	"testing"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/faults"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
)

func testLoads(t *testing.T, rate float64) []trace.FunctionLoad {
	t.Helper()
	names := []string{"get-time (p)", "md2html (p)", "bicg (c)"}
	var loads []trace.FunctionLoad
	for _, n := range names {
		e, err := catalog.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, trace.FunctionLoad{Entry: e, RatePerSec: rate, Burstiness: 3})
	}
	return loads
}

func testConfig() Config {
	return Config{
		Cost:                     kernel.Default(),
		Mode:                     isolation.ModeGH,
		Seed:                     3,
		Hosts:                    3,
		MaxContainersPerFunction: 4,
		KeepAlive:                600 * time.Millisecond,
		ScaleToZeroAfter:         1800 * time.Millisecond,
		Window:                   3 * time.Second,
	}
}

// testFaults arms every recovery-relevant site at a low rate, plus one
// scheduled transfer abort so the pull fallback path runs deterministically.
func testFaults(seed uint64) faults.Plan {
	return faults.Plan{
		Seed: seed,
		Rates: map[faults.Site]float64{
			faults.SiteCloneSpawn:   0.01,
			faults.SiteColdStart:    0.01,
			faults.SiteRestore:      0.005,
			faults.SiteRequestCrash: 0.005,
		},
		Schedule: map[faults.Site][]uint64{
			faults.SiteImageTransfer: {1},
		},
	}
}

func runCluster(t *testing.T, cfg Config, rate float64) (*Cluster, *Result) {
	t.Helper()
	cl, err := New(cfg, testLoads(t, rate))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return cl, res
}

// checkNoLostWork asserts the cluster's two invariants: every arrived
// request was served (host failures re-dispatch, never drop), and teardown
// returns every frame on every host.
func checkNoLostWork(t *testing.T, cl *Cluster, res *Result) {
	t.Helper()
	if lost := res.LostRequests(); lost != 0 {
		t.Fatalf("%d requests lost", lost)
	}
	for _, fs := range res.PerFunction {
		if fs.Arrived != fs.Requests {
			t.Fatalf("%s: arrived %d != served %d", fs.Name, fs.Arrived, fs.Requests)
		}
	}
	if leaked := cl.Teardown(); leaked != 0 {
		t.Fatalf("teardown left %d frames in use", leaked)
	}
}

// TestPlacersSurviveFailureAndDrain is the tentpole invariant test: each
// built-in placer runs a faulty cluster through a mid-run host failure and
// a drain, and must lose no requests and leak no frames.
func TestPlacersSurviveFailureAndDrain(t *testing.T) {
	for _, placer := range Placers() {
		t.Run(placer.Name(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Placer = placer
			cfg.Faults = testFaults(11)
			cfg.Events = []Event{
				{At: sim.Duration(cfg.Window) * 2 / 5, Kind: EventHostFail, Host: 2},
				{At: sim.Duration(cfg.Window) * 7 / 10, Kind: EventHostDrain, Host: 1},
			}
			cl, res := runCluster(t, cfg, 20)
			checkNoLostWork(t, cl, res)
			if !res.PerHost[2].Failed || res.PerHost[1].Failed {
				t.Fatalf("host flags wrong: %+v", res.PerHost)
			}
			if !res.PerHost[1].Drained {
				t.Fatal("drained host not flagged")
			}
			// A downed host's memory is released when it leaves: its pools
			// were emptied and its images evicted at the event.
			for _, id := range []int{1, 2} {
				if n := res.PerHost[id].EndFrames; n != 0 {
					t.Fatalf("host %d still holds %d frames after leaving the cluster", id, n)
				}
			}
		})
	}
}

// TestPackFirstPacks: with every host live, pack-first — set explicitly or
// as the nil default — never leaves host 0 and never pays a transfer.
func TestPackFirstPacks(t *testing.T) {
	for _, placer := range []Placer{PackFirst{}, nil} {
		name := "default"
		if placer != nil {
			name = placer.Name()
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Placer = placer
			cl, res := runCluster(t, cfg, 20)
			for _, hs := range res.PerHost[1:] {
				if hs.Placements != 0 {
					t.Fatalf("pack-first placed %d containers on host %d", hs.Placements, hs.ID)
				}
			}
			if res.PerHost[0].Placements == 0 {
				t.Fatal("no placements recorded on host 0")
			}
			if res.Registry.Transfers != 0 {
				t.Fatalf("pack-first on one host paid %d transfers", res.Registry.Transfers)
			}
			checkNoLostWork(t, cl, res)
		})
	}
}

// TestRoundRobinSpreadsAndPaysTransfers: cycling placements touch every
// host, so the deployment's image must be pulled across hosts.
func TestRoundRobinSpreadsAndPaysTransfers(t *testing.T) {
	cfg := testConfig()
	cfg.Placer = &RoundRobin{}
	cl, res := runCluster(t, cfg, 30)
	for _, hs := range res.PerHost {
		if hs.Placements == 0 {
			t.Fatalf("round-robin never placed on host %d", hs.ID)
		}
	}
	if res.Registry.Transfers == 0 {
		t.Fatal("round-robin crossed hosts without any image transfer")
	}
	transferStarts := 0
	for _, fs := range res.PerFunction {
		transferStarts += fs.TransferColdStarts
		if fs.TransferColdStarts > 0 && fs.TransferCost == 0 {
			t.Fatalf("%s: transfer cold starts with zero transfer cost", fs.Name)
		}
	}
	if transferStarts == 0 {
		t.Fatal("no transfer cold starts recorded")
	}
	checkNoLostWork(t, cl, res)
}

// TestClusterDeterministic: the same seed reproduces the same run,
// transfers, placements and latencies included.
func TestClusterDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := testConfig()
		cfg.Placer = &RoundRobin{}
		cfg.Faults = testFaults(11)
		cfg.Events = []Event{{At: sim.Duration(cfg.Window) / 2, Kind: EventHostFail, Host: 0}}
		_, res := runCluster(t, cfg, 20)
		return res
	}
	a, b := run(), run()
	for i := range a.PerFunction {
		fa, fb := a.PerFunction[i], b.PerFunction[i]
		if fa.Requests != fb.Requests || fa.ColdStarts != fb.ColdStarts ||
			fa.Transfers != fb.Transfers || fa.ColdStartCost != fb.ColdStartCost ||
			fa.E2E.N() != fb.E2E.N() || fa.E2E.Mean() != fb.E2E.Mean() {
			t.Fatalf("run diverged for %s:\n%+v\nvs\n%+v", fa.Name, fa, fb)
		}
	}
	if a.PeakFrames != b.PeakFrames || a.EndFrames != b.EndFrames || a.Registry != b.Registry {
		t.Fatalf("cluster-wide results diverged: %+v vs %+v", a, b)
	}
}

// TestHostFailureRedispatches: failing the only image-warm host mid-window
// moves the work to the survivor with nothing lost; the failed host takes
// no further placements.
func TestHostFailureRedispatches(t *testing.T) {
	cfg := testConfig()
	cfg.Hosts = 2
	cfg.Placer = PackFirst{} // everything lands on host 0 until it dies
	cfg.Events = []Event{{At: sim.Duration(cfg.Window) / 2, Kind: EventHostFail, Host: 0}}
	cl, res := runCluster(t, cfg, 20)
	checkNoLostWork(t, cl, res)
	crashes := 0
	for _, fs := range res.PerFunction {
		crashes += fs.EventCrashes
	}
	if crashes == 0 {
		t.Fatal("host failure removed no containers")
	}
	if res.PerHost[1].Placements == 0 {
		t.Fatal("survivor host took no placements after the failure")
	}
}

// TestValidateRejectsTotalOutage: an event schedule that downs every host
// is rejected up front — the queues could never drain.
func TestValidateRejectsTotalOutage(t *testing.T) {
	cfg := testConfig()
	cfg.Hosts = 2
	cfg.Events = []Event{
		{At: sim.Duration(time.Second), Kind: EventHostFail, Host: 0},
		{At: sim.Duration(2 * time.Second), Kind: EventHostDrain, Host: 1},
	}
	if _, err := New(cfg, testLoads(t, 10)); err == nil {
		t.Fatal("config downing every host was accepted")
	}
}

// TestScaleToZeroReleasesClusterMemory: after traffic stops, scale-to-zero
// under FixedTTL evicts images everywhere; a post-drain cluster holds no
// frames even before Teardown.
func TestScaleToZeroReleasesClusterMemory(t *testing.T) {
	cfg := testConfig()
	cfg.Placer = &RoundRobin{} // force images onto several hosts
	cfg.Window = 6 * time.Second
	// Sparse Poisson arrivals leave gaps long enough for the two-tier
	// reaper to take pools to zero mid-window.
	loads := testLoads(t, 2)
	for i := range loads {
		loads[i].Burstiness = 1
	}
	cl, err := New(cfg, loads)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	scaledToZero := 0
	for _, fs := range res.PerFunction {
		scaledToZero += fs.ScaledToZero
	}
	if scaledToZero == 0 {
		t.Skip("no pool scaled to zero at this operating point")
	}
	if leaked := cl.Teardown(); leaked != 0 {
		t.Fatalf("teardown left %d frames", leaked)
	}
}
