package cluster

import (
	"slices"
	"testing"
	"time"

	"groundhog/internal/faas"
	"groundhog/internal/runtimes"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
)

// fleetConfig is the trace.Fleet equivalent of a cluster configuration: the
// same dispatcher settings, plus the pool-side fields on one shared kernel
// with clone scale-out on (the cluster's is always on).
func fleetConfig(cfg Config) trace.Config {
	tc := cfg.dispatcher()
	tc.Cost, tc.Mode, tc.CloneScaleOut = cfg.Cost, cfg.Mode, true
	return tc
}

func runFleet(t *testing.T, cfg trace.Config, loads []trace.FunctionLoad) *trace.Result {
	t.Helper()
	fl, err := trace.NewFleet(cfg, loads)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestOneHostClusterMatchesFleet pins the provider seam's N-host instance
// against its trivial one: an event-free one-host cluster is the same program
// as a clone-scale-out fleet on the same seed, armed with host 0's fault
// stream or not, so every shared per-function field and the frame integral
// agree exactly. PeakFrames is the one documented difference (tick-sampled on
// the cluster, exact on the fleet: sampled <= exact).
func TestOneHostClusterMatchesFleet(t *testing.T) {
	for _, tc := range []struct {
		name        string
		rate        float64
		scaleToZero bool
		armed       bool
	}{
		{"rate=10/keep-warm", 10, false, false},
		{"rate=10/scale-to-zero", 10, true, false},
		{"rate=30/keep-warm", 30, false, false},
		{"rate=30/scale-to-zero", 30, true, false},
		{"rate=10/armed", 10, true, true},
		{"rate=30/armed", 30, true, true},
		{"rate=120/armed", 120, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Hosts = 1
			if !tc.scaleToZero {
				cfg.ScaleToZeroAfter = 0
			}
			fcfg := fleetConfig(cfg)
			if tc.armed {
				cfg.Faults = testFaults(7)
				// The fleet's one kernel draws host 0's injection stream.
				fcfg.Faults = cfg.Faults
				fcfg.Faults.Seed = cfg.Faults.Seed ^ 0x9E3779B97F4A7C15
			}
			loads := testLoads(t, tc.rate)
			_, cres := runCluster(t, cfg, tc.rate)
			fres := runFleet(t, fcfg, loads)

			if len(cres.PerFunction) != len(fres.PerFunction) {
				t.Fatalf("%d cluster functions vs %d fleet functions", len(cres.PerFunction), len(fres.PerFunction))
			}
			for i, c := range cres.PerFunction {
				f := fres.PerFunction[i]
				type shared struct {
					Name                                                  string
					Arrived, Requests, ColdStarts, Restores, Reaped       int
					ScaledToZero, ImagesEvicted                           int
					ColdStartCost                                         sim.Duration
					E2EMedian, E2EP99, QueueMedian, QueueP99              float64
					FullColdStarts, CloneColdStarts, StateGets, StatePuts int
					Recovery                                              faas.RecoveryStats
				}
				got := shared{c.Name, c.Arrived, c.Requests, c.ColdStarts, c.Restores, c.Reaped,
					c.ScaledToZero, c.ImagesEvicted, c.ColdStartCost,
					c.E2E.Median(), c.E2E.P99(), c.Queue.Median(), c.Queue.P99(),
					c.FullColdStarts, c.CloneColdStarts, c.StateGets, c.StatePuts, c.Recovery}
				want := shared{f.Name, f.Arrived, f.Requests, f.ColdStarts, f.Restores, f.Reaped,
					f.ScaledToZero, f.ImagesEvicted, f.ColdStartCost,
					f.E2E.Median(), f.E2E.P99(), f.Queue.Median(), f.Queue.P99(),
					f.FullColdStarts, f.CloneColdStarts, f.StateGets, f.StatePuts, f.Recovery}
				if got != want {
					t.Errorf("%s diverges:\ncluster %+v\nfleet   %+v", c.Name, got, want)
				}
				if c.TransferColdStarts != 0 || c.LocalCloneColdStarts != c.CloneColdStarts {
					t.Errorf("%s: one host paid %d transfers, %d local clones of %d clones",
						c.Name, c.TransferColdStarts, c.LocalCloneColdStarts, c.CloneColdStarts)
				}
			}
			if cres.EndFrames != fres.EndFrames || cres.MeanFrames != fres.MeanFrames {
				t.Errorf("frames diverge: cluster end=%d mean=%v, fleet end=%d mean=%v",
					cres.EndFrames, cres.MeanFrames, fres.EndFrames, fres.MeanFrames)
			}
			if cres.PeakFrames > fres.PeakFrames {
				t.Errorf("sampled peak %d above the exact peak %d", cres.PeakFrames, fres.PeakFrames)
			}
		})
	}
}

// TestNewRejectsWhatNewFleetRejects: the cluster's loads go through the one
// shared load validation. The amplitude-1.5 load used to be accepted and then
// panicked Run with "sim: negative delay"; a load's FixedTTL is held to the
// config's TTL rule.
func TestNewRejectsWhatNewFleetRejects(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*trace.FunctionLoad)
	}{
		{"diurnal amplitude 1.5", func(l *trace.FunctionLoad) {
			l.DiurnalAmplitude, l.DiurnalPeriod = 1.5, sim.Duration(time.Second)
		}},
		{"negative diurnal amplitude", func(l *trace.FunctionLoad) {
			l.DiurnalAmplitude, l.DiurnalPeriod = -0.1, sim.Duration(time.Second)
		}},
		{"amplitude without a period", func(l *trace.FunctionLoad) { l.DiurnalAmplitude = 0.5 }},
		{"negative runtime memory factor", func(l *trace.FunctionLoad) {
			l.Runtime = runtimes.RuntimeProfile{Name: "bad", MemoryFactor: -1}
		}},
		{"negative runtime warm-up", func(l *trace.FunctionLoad) {
			l.Runtime = runtimes.RuntimeProfile{Name: "bad", WarmupExtra: -1}
		}},
		{"zero rate", func(l *trace.FunctionLoad) { l.RatePerSec = 0 }},
		{"fixed-ttl scale-to-zero below keep-alive", func(l *trace.FunctionLoad) {
			l.Policy = trace.FixedTTL{KeepAlive: 2 * time.Second, ScaleToZeroAfter: time.Second}
		}},
		{"negative fixed-ttl keep-alive", func(l *trace.FunctionLoad) {
			l.Policy = trace.FixedTTL{KeepAlive: -time.Second}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loads := testLoads(t, 10)
			tc.mutate(&loads[1])
			_, clusterErr := New(testConfig(), loads)
			_, fleetErr := trace.NewFleet(fleetConfig(testConfig()), loads)
			if clusterErr == nil || fleetErr == nil {
				t.Fatalf("accepted: cluster err=%v, fleet err=%v", clusterErr, fleetErr)
			}
			if clusterErr.Error() != fleetErr.Error() {
				t.Fatalf("different verdicts:\ncluster: %v\nfleet:   %v", clusterErr, fleetErr)
			}
		})
	}
	// The fleet's own default policy is resolved the same way.
	for _, bad := range []trace.FixedTTL{
		{KeepAlive: 2 * time.Second, ScaleToZeroAfter: time.Second},
		{KeepAlive: -time.Second},
	} {
		cfg := fleetConfig(testConfig())
		cfg.Policy = bad
		if _, err := trace.NewFleet(cfg, testLoads(t, 10)); err == nil {
			t.Fatalf("fleet accepted Config.Policy %+v", bad)
		}
	}
}

// TestRuntimeOverlayReachesClusterPools: FunctionLoad.Runtime is applied to
// the profile every per-host pool deploys, so a Python overlay moves a
// one-host cluster's cold-start bill exactly as it moves the fleet's (the
// cluster used to deploy Entry.Prof and ignore the overlay).
func TestRuntimeOverlayReachesClusterPools(t *testing.T) {
	cfg := testConfig()
	cfg.Hosts = 1
	// bills runs the same loads on the cluster and on the fleet and returns
	// each function's cold-start bill, in PerFunction (name) order.
	bills := func(overlay runtimes.RuntimeProfile) (cluster, fleet []sim.Duration) {
		loads := testLoads(t, 20)
		for i := range loads {
			loads[i].Runtime = overlay
		}
		cl, err := New(cfg, loads)
		if err != nil {
			t.Fatal(err)
		}
		cres, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, fs := range cres.PerFunction {
			cluster = append(cluster, fs.ColdStartCost)
		}
		for _, fs := range runFleet(t, fleetConfig(cfg), loads).PerFunction {
			fleet = append(fleet, fs.ColdStartCost)
		}
		return cluster, fleet
	}
	plainCluster, plainFleet := bills(runtimes.RuntimeProfile{})
	pyCluster, pyFleet := bills(runtimes.RuntimePython)
	for i, plain := range plainCluster {
		if plain == 0 {
			t.Fatalf("function %d: no cold-start cost at this operating point", i)
		}
		if plain != plainFleet[i] || pyCluster[i] != pyFleet[i] {
			t.Errorf("function %d: cluster bill %v/%v (plain/python) vs fleet %v/%v",
				i, plain, pyCluster[i], plainFleet[i], pyFleet[i])
		}
		if pyCluster[i] <= plain {
			t.Errorf("function %d: python overlay left the cluster's cold-start bill at %v (plain %v)",
				i, pyCluster[i], plain)
		}
	}
}

// TestPerLoadPolicyOverride: FunctionLoad.Policy is resolved per function on
// the cluster as on the fleet. Arrivals are sparse enough that the cluster
// default takes every function to zero; the one function carrying a FixedTTL
// with no scale-to-zero tier keeps its warm floor through the same gaps.
func TestPerLoadPolicyOverride(t *testing.T) {
	cfg := testConfig()
	cfg.Window = 12 * time.Second
	run := func(override trace.Policy) *Result {
		loads := testLoads(t, 0.5)
		for i := range loads {
			loads[i].Burstiness = 1 // Poisson: idle gaps well past the scale-to-zero TTL
		}
		loads[0].Policy = override
		cl, err := New(cfg, loads)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Run()
		if err != nil {
			t.Fatal(err)
		}
		checkNoLostWork(t, cl, res)
		return res
	}
	held := testLoads(t, 0.5)[0].Entry.Prof.DisplayName()
	for _, fs := range run(nil).PerFunction {
		if fs.ScaledToZero == 0 {
			t.Fatalf("%s never scaled to zero on the cluster default at this operating point", fs.Name)
		}
	}
	for _, fs := range run(trace.FixedTTL{KeepAlive: cfg.KeepAlive}).PerFunction {
		switch {
		case fs.Name == held && (fs.ScaledToZero != 0 || fs.ImagesEvicted != 0):
			t.Errorf("%s scaled to zero %d times (evicted %d) under its keep-warm override",
				held, fs.ScaledToZero, fs.ImagesEvicted)
		case fs.Name != held && fs.ScaledToZero == 0:
			t.Errorf("%s, on the cluster default, no longer scales to zero", fs.Name)
		}
	}
}

// footprintCheck is CostMinimizing holding every decision's memory signals
// to the sum of Memory over the function's pools on the cluster, nil slots
// skipped; it counts its checks and those made with a nil slot present.
type footprintCheck struct {
	trace.CostMinimizing
	t               *testing.T
	pools           *[]*faas.Platform
	checks, withNil int
}

func (p *footprintCheck) check(sig trace.Signals) {
	var pages, bytes int
	nilSlot := false
	for _, pl := range *p.pools {
		if pl == nil {
			nilSlot = true
			continue
		}
		st := pl.Memory()
		pages += st.ResidentPages
		bytes += st.StateStoreBytes
	}
	if sig.ResidentPages != pages || sig.StateStoreBytes != bytes {
		p.t.Fatalf("signals report %d pages, %d bytes; the pools' Memory %d pages, %d bytes",
			sig.ResidentPages, sig.StateStoreBytes, pages, bytes)
	}
	p.checks++
	if nilSlot {
		p.withNil++
	}
}

func (p *footprintCheck) ScaleUp(sig trace.Signals) int {
	p.check(sig)
	return p.CostMinimizing.ScaleUp(sig)
}

func (p *footprintCheck) Reap(sig trace.Signals, idle sim.Duration, last bool) bool {
	p.check(sig)
	return p.CostMinimizing.Reap(sig, idle, last)
}

func (p *footprintCheck) EvictImage(sig trace.Signals) bool {
	p.check(sig)
	return p.CostMinimizing.EvictImage(sig)
}

// TestClusterSignalsSumFootprint: on a 2-host cluster the dispatcher's
// memory signals sum every pool's Memory figures at each CostMinimizing
// decision, while some pool slots are still nil and after they fill.
func TestClusterSignalsSumFootprint(t *testing.T) {
	cfg := testConfig()
	cfg.Hosts = 2
	cfg.Placer = &RoundRobin{}
	loads := testLoads(t, 20)
	checks := make([]*footprintCheck, len(loads))
	for i := range loads {
		checks[i] = &footprintCheck{t: t}
		loads[i].Policy = checks[i]
	}
	cl, err := New(cfg, loads)
	if err != nil {
		t.Fatal(err)
	}
	for i, ds := range cl.deps {
		checks[i].pools = &ds.pools
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkNoLostWork(t, cl, res)
	var all, withNil int
	for _, p := range checks {
		all += p.checks
		withNil += p.withNil
	}
	if withNil == 0 || withNil == all {
		t.Fatalf("%d of %d checks saw a nil pool slot; want some with and some without", withNil, all)
	}
}

// TestClusterStatsCarryStateOps: stateful profiles' external-store traffic
// is accumulated on the cluster as on the fleet (the mirrored dispatcher
// never did).
func TestClusterStatsCarryStateOps(t *testing.T) {
	loads := testLoads(t, 20)
	loads[0].Entry.Prof.StateGets, loads[0].Entry.Prof.StatePuts = 2, 0.5
	cl, err := New(testConfig(), loads)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run()
	if err != nil {
		t.Fatal(err)
	}
	name := loads[0].Entry.Prof.DisplayName()
	fs := res.PerFunction[slices.IndexFunc(res.PerFunction, func(f *Stats) bool { return f.Name == name })]
	if fs.StateGets != 2*fs.Requests || fs.StatePuts == 0 || fs.StatePuts >= fs.Requests {
		t.Fatalf("%d requests recorded %d gets / %d puts, want %d gets and a Bernoulli(0.5) share of puts",
			fs.Requests, fs.StateGets, fs.StatePuts, 2*fs.Requests)
	}
	for _, other := range res.PerFunction[1:] {
		if other.Name != fs.Name && (other.StateGets != 0 || other.StatePuts != 0) {
			t.Fatalf("%s is stateless but recorded state ops", other.Name)
		}
	}
	checkNoLostWork(t, cl, res)
}
