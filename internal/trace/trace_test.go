package trace

import (
	"math"
	"testing"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/core"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/sim"
)

func testLoads(t *testing.T, rate float64) []FunctionLoad {
	t.Helper()
	names := []string{"get-time (p)", "md2html (p)", "bicg (c)"}
	var loads []FunctionLoad
	for _, n := range names {
		e, err := catalog.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, FunctionLoad{Entry: e, RatePerSec: rate, Burstiness: 1})
	}
	return loads
}

// bothStores is the table input of the reaper tests that free snapshot
// memory: the copy store's arena and the CoW store's shared frames are
// released by different code.
var bothStores = []core.StoreKind{core.StoreCopy, core.StoreCoW}

func testConfig(mode isolation.Mode) Config {
	return Config{
		Cost:                     kernel.Default(),
		Mode:                     mode,
		Seed:                     3,
		MaxContainersPerFunction: 3,
		KeepAlive:                2 * time.Second,
		Window:                   4 * time.Second,
	}
}

func TestFleetServesAllFunctions(t *testing.T) {
	f, err := NewFleet(testConfig(isolation.ModeBase), testLoads(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerFunction) != 3 {
		t.Fatalf("functions = %d", len(res.PerFunction))
	}
	for _, fs := range res.PerFunction {
		// ~40 expected arrivals per function over the window.
		if fs.Requests < 15 {
			t.Fatalf("%s served only %d requests", fs.Name, fs.Requests)
		}
		if fs.Restores != 0 {
			t.Fatalf("BASE fleet restored state: %s %d", fs.Name, fs.Restores)
		}
		if fs.E2E.Mean() <= 0 {
			t.Fatalf("%s has no latency samples", fs.Name)
		}
	}
}

func TestFleetGHRestoresEveryRequest(t *testing.T) {
	f, err := NewFleet(testConfig(isolation.ModeGH), testLoads(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range res.PerFunction {
		if fs.Restores != fs.Requests {
			t.Fatalf("%s: %d restores for %d requests", fs.Name, fs.Restores, fs.Requests)
		}
	}
}

func TestFleetLatencyGHTracksBaseAtLowLoad(t *testing.T) {
	mean := func(mode isolation.Mode) float64 {
		f, err := NewFleet(testConfig(mode), testLoads(t, 5))
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, fs := range res.PerFunction {
			sum += fs.E2E.Mean()
		}
		return sum / float64(len(res.PerFunction))
	}
	base, gh := mean(isolation.ModeBase), mean(isolation.ModeGH)
	if gh > base*1.25 {
		t.Fatalf("fleet GH mean %.2fms far above BASE %.2fms at low load", gh, base)
	}
}

func TestFleetScalesUpUnderBurst(t *testing.T) {
	cfg := testConfig(isolation.ModeGH)
	loads := testLoads(t, 60)[:1] // one function, hot
	loads[0].Burstiness = 4
	f, err := NewFleet(cfg, loads)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	fs := res.PerFunction[0]
	if fs.ColdStarts == 0 {
		t.Fatal("hot bursty function never scaled up")
	}
	if fs.ColdStarts > cfg.MaxContainersPerFunction {
		t.Fatalf("cold starts %d exceed pool cap %d (pool churn?)",
			fs.ColdStarts, cfg.MaxContainersPerFunction+fs.Reaped*cfg.MaxContainersPerFunction)
	}
}

func TestFleetKeepAliveReapsIdleContainers(t *testing.T) {
	cfg := testConfig(isolation.ModeBase)
	cfg.Window = 10 * time.Second
	cfg.KeepAlive = 500 * time.Millisecond
	// Bursty single function: scale up early, idle later.
	loads := testLoads(t, 50)[:1]
	loads[0].Burstiness = 4
	f, err := NewFleet(cfg, loads)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	fs := res.PerFunction[0]
	if fs.ColdStarts == 0 {
		t.Skip("workload never scaled up; nothing to reap")
	}
	if fs.Reaped == 0 {
		t.Fatal("no idle containers reaped despite short keep-alive")
	}
}

func TestFleetConfigValidation(t *testing.T) {
	cfg := testConfig(isolation.ModeBase)
	cfg.MaxContainersPerFunction = 0
	if _, err := NewFleet(cfg, testLoads(t, 1)); err == nil {
		t.Fatal("zero pool cap accepted")
	}
	cfg = testConfig(isolation.ModeBase)
	if _, err := NewFleet(cfg, nil); err == nil {
		t.Fatal("empty fleet accepted")
	}
	loads := testLoads(t, 1)
	loads[0].RatePerSec = 0
	if _, err := NewFleet(cfg, loads); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestFleetResultLookup(t *testing.T) {
	f, err := NewFleet(testConfig(isolation.ModeBase), testLoads(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Function("md2html (p)"); !ok {
		t.Fatal("Function lookup failed")
	}
	if _, ok := res.Function("nope"); ok {
		t.Fatal("bogus lookup succeeded")
	}
	if res.PeakFrames <= 0 {
		t.Fatal("no frame accounting")
	}
}

// The hyperexponential interarrival generator must preserve the requested
// mean and raise variance with Burstiness.
func TestInterarrivalMoments(t *testing.T) {
	gen := func(cv float64) (mean, stddev float64) {
		fs := &fnState{
			load: FunctionLoad{RatePerSec: 100, Burstiness: cv},
			rng:  sim.NewRand(99),
		}
		const n = 30000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(drawInterarrival(fs.load, fs.rng, 0)) / 1e6 // ms
			sum += v
			sumSq += v * v
		}
		m := sum / n
		return m, math.Sqrt(sumSq/n - m*m)
	}
	m1, s1 := gen(1)
	if m1 < 9 || m1 > 11 {
		t.Fatalf("Poisson mean = %.2fms, want ~10", m1)
	}
	if cv := s1 / m1; cv < 0.9 || cv > 1.1 {
		t.Fatalf("Poisson CV = %.2f, want ~1", cv)
	}
	m4, s4 := gen(4)
	if m4 < 8.5 || m4 > 11.5 {
		t.Fatalf("bursty mean = %.2fms, want ~10", m4)
	}
	if cv := s4 / m4; cv < 3 {
		t.Fatalf("bursty CV = %.2f, want ~4", cv)
	}
}

// TestFleetReaperPreservesWarmFloor: without scale-to-zero, the reaper never
// empties a pool — one warm container survives arbitrarily long idleness.
func TestFleetReaperPreservesWarmFloor(t *testing.T) {
	cfg := testConfig(isolation.ModeBase)
	cfg.KeepAlive = 200 * time.Millisecond
	cfg.Window = 6 * time.Second
	loads := testLoads(t, 30)[:1]
	loads[0].Burstiness = 4
	f, err := NewFleet(cfg, loads)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	for _, fs := range f.fns {
		if len(fs.pools[0].Containers()) < 1 {
			t.Fatalf("%s scaled to zero without ScaleToZeroAfter", fs.stats.Name)
		}
	}
	// Direct check too: a pool of one idle-forever container is untouchable.
	fs := f.fns[0]
	for len(fs.pools[0].Containers()) > 1 {
		fs.pools[0].RemoveContainer(fs.pools[0].Containers()[1])
	}
	reapedBefore := fs.stats.Reaped
	f.reapIdle(fs, f.engine.Now()+sim.Time(time.Hour))
	if len(fs.pools[0].Containers()) != 1 || fs.stats.Reaped != reapedBefore {
		t.Fatal("reaper touched the warm floor")
	}
}

// TestFleetReaperMultiReapAccounting exercises the fixed pool iteration:
// with three containers simultaneously idle past the TTL, one reap pass
// removes exactly the two above the warm floor and counts exactly two —
// ranging over a pre-reap snapshot of the pool (the old bug) visited stale
// duplicate entries and over-counted.
func TestFleetReaperMultiReapAccounting(t *testing.T) {
	for _, store := range bothStores {
		t.Run(store.String(), func(t *testing.T) {
			cfg := testConfig(isolation.ModeGH) // BASE takes no snapshot and would ignore the store
			cfg.Store = store
			f, err := NewFleet(cfg, testLoads(t, 5)[:1])
			if err != nil {
				t.Fatal(err)
			}
			fs := f.fns[0]
			for len(fs.pools[0].Containers()) < 3 {
				if _, err := fs.pools[0].AddContainer(); err != nil {
					t.Fatal(err)
				}
			}
			var latest sim.Time
			for _, c := range fs.pools[0].Containers() {
				if c.Ready() > latest {
					latest = c.Ready()
				}
			}
			f.engine.RunUntil(latest)
			for _, c := range fs.pools[0].Containers() {
				if _, err := fs.pools[0].Serve(c, ""); err != nil {
					t.Fatal(err)
				}
			}
			f.engine.Run() // let completions land

			f.reapIdle(fs, f.engine.Now()+sim.Time(time.Hour))
			if got := len(fs.pools[0].Containers()); got != 1 {
				t.Fatalf("pool = %d containers after reap, want the warm floor of 1", got)
			}
			if fs.stats.Reaped != 2 {
				t.Fatalf("reaped = %d, want exactly 2 (stale-snapshot over-count?)", fs.stats.Reaped)
			}
		})
	}
}

// TestFleetReapWhileBusy: a container whose restore gate is still closed
// (Ready in the future) is never reaped, no matter how stale its LastDone.
func TestFleetReapWhileBusy(t *testing.T) {
	cfg := testConfig(isolation.ModeGH)
	cfg.KeepAlive = 50 * time.Microsecond // far below a GH restore's cleanup
	f, err := NewFleet(cfg, testLoads(t, 5)[:1])
	if err != nil {
		t.Fatal(err)
	}
	fs := f.fns[0]
	if _, err := fs.pools[0].AddContainer(); err != nil {
		t.Fatal(err)
	}
	c2 := fs.pools[0].Containers()[1]
	f.engine.RunUntil(c2.Ready())
	var minReady, maxReady sim.Time
	for _, c := range fs.pools[0].Containers() {
		if _, err := fs.pools[0].Serve(c, ""); err != nil {
			t.Fatal(err)
		}
		// Each serve leaves the restore gate closed until Ready().
		if mid := c.LastDone() + sim.Time(cfg.KeepAlive*2); mid >= c.Ready() {
			t.Fatalf("test premise broken: cleanup shorter than 2x TTL (ready %v, lastDone %v)",
				c.Ready(), c.LastDone())
		}
		if minReady == 0 || c.Ready() < minReady {
			minReady = c.Ready()
		}
		if c.Ready() > maxReady {
			maxReady = c.Ready()
		}
	}
	// Mid-cleanup: both containers' LastDone exceed the tiny TTL but their
	// restore gates are still closed.
	f.reapIdle(fs, minReady-1)
	if fs.stats.Reaped != 0 || len(fs.pools[0].Containers()) != 2 {
		t.Fatalf("busy container reaped: reaped=%d pool=%d", fs.stats.Reaped, len(fs.pools[0].Containers()))
	}
	// Once the gates open, the extra container is fair game.
	f.reapIdle(fs, maxReady+sim.Time(time.Hour))
	if fs.stats.Reaped != 1 || len(fs.pools[0].Containers()) != 1 {
		t.Fatalf("idle container survived: reaped=%d pool=%d", fs.stats.Reaped, len(fs.pools[0].Containers()))
	}
}

// TestFleetQueueDrainsAfterWindow: arrivals stop at the deadline but every
// queued request is still served during the drain — no request is dropped,
// and every one contributes a latency sample.
func TestFleetQueueDrainsAfterWindow(t *testing.T) {
	cfg := testConfig(isolation.ModeGH)
	cfg.MaxContainersPerFunction = 1 // saturate: the queue must carry bursts
	loads := testLoads(t, 80)[:1]
	loads[0].Burstiness = 4
	f, err := NewFleet(cfg, loads)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range f.fns {
		if len(fs.queue) != 0 {
			t.Fatalf("%s left %d requests queued after the drain", fs.stats.Name, len(fs.queue))
		}
	}
	fst := res.PerFunction[0]
	if fst.E2E.N() != fst.Requests || fst.Queue.N() != fst.Requests {
		t.Fatalf("sample counts (%d e2e, %d queue) diverge from %d requests",
			fst.E2E.N(), fst.Queue.N(), fst.Requests)
	}
	if fst.Requests < 80 {
		t.Fatalf("saturated function served only %d requests", fst.Requests)
	}
}

// TestFleetScaleToZeroEvictsImage is the trace-level half of the eviction
// acceptance pin: after the long idle TTL the pool drops to zero, the
// snapshot image is evicted, and every frame the deployment held returns to
// physical memory.
func TestFleetScaleToZeroEvictsImage(t *testing.T) {
	for _, store := range bothStores {
		t.Run(store.String(), func(t *testing.T) {
			cfg := testConfig(isolation.ModeGH)
			cfg.Store = store
			cfg.CloneScaleOut = true
			cfg.ScaleToZeroAfter = cfg.KeepAlive
			f, err := NewFleet(cfg, testLoads(t, 5)[:1])
			if err != nil {
				t.Fatal(err)
			}
			fs := f.fns[0]
			c, err := fs.pools[0].AddContainer() // clones from the warm floor donor
			if err != nil {
				t.Fatal(err)
			}
			if c.ColdStart().ClonedFrom < 0 {
				t.Fatal("scale-up did not clone")
			}
			f.engine.RunUntil(c.Ready())
			if _, err := fs.pools[0].Serve(c, ""); err != nil {
				t.Fatal(err)
			}
			f.engine.Run()
			if f.kern.Phys.InUse() == 0 {
				t.Fatal("fleet holds no frames before the reap")
			}

			f.reapIdle(fs, f.engine.Now()+sim.Time(time.Hour))
			if got := len(fs.pools[0].Containers()); got != 0 {
				t.Fatalf("pool = %d after scale-to-zero", got)
			}
			if fs.stats.ScaledToZero != 1 || fs.stats.ImagesEvicted != 1 {
				t.Fatalf("lifecycle counters: scaledToZero=%d imagesEvicted=%d, want 1/1",
					fs.stats.ScaledToZero, fs.stats.ImagesEvicted)
			}
			if got := f.kern.Phys.InUse(); got != 0 {
				t.Fatalf("%d frames still in use after eviction; image memory not returned", got)
			}
		})
	}
}

// TestFleetScaleToZeroConfigValidation: the longer TTL must not undercut
// keep-alive.
func TestFleetScaleToZeroConfigValidation(t *testing.T) {
	cfg := testConfig(isolation.ModeBase)
	cfg.ScaleToZeroAfter = cfg.KeepAlive / 2
	if _, err := NewFleet(cfg, testLoads(t, 1)); err == nil {
		t.Fatal("scale-to-zero TTL below keep-alive accepted")
	}
	cfg.ScaleToZeroAfter = -1
	if _, err := NewFleet(cfg, testLoads(t, 1)); err == nil {
		t.Fatal("negative scale-to-zero TTL accepted")
	}
}

// TestFleetCloneScaleOutStats: under CloneScaleOut the dispatcher's scale-ups
// take the clone path, the full/clone split adds up, and clone cold starts
// are far cheaper than the keep-alive-only fleet's full pipelines.
func TestFleetCloneScaleOutStats(t *testing.T) {
	run := func(cloneScaleOut bool) *FunctionStats {
		cfg := testConfig(isolation.ModeGH)
		cfg.CloneScaleOut = cloneScaleOut
		loads := testLoads(t, 60)[:1]
		loads[0].Burstiness = 4
		f, err := NewFleet(cfg, loads)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.PerFunction[0]
	}
	full := run(false)
	clone := run(true)

	for _, fs := range []*FunctionStats{full, clone} {
		if fs.ColdStarts != fs.FullColdStarts+fs.CloneColdStarts {
			t.Fatalf("cold-start split %d+%d != total %d",
				fs.FullColdStarts, fs.CloneColdStarts, fs.ColdStarts)
		}
		if fs.CloneLatency.N() != fs.CloneColdStarts || fs.FullColdLatency.N() != fs.FullColdStarts {
			t.Fatal("latency summaries diverge from cold-start counters")
		}
	}
	if full.ColdStarts == 0 {
		t.Skip("workload never scaled up; nothing to compare")
	}
	if full.CloneColdStarts != 0 {
		t.Fatalf("clone cold starts %d with cloning disabled", full.CloneColdStarts)
	}
	if clone.CloneColdStarts == 0 {
		t.Fatal("clone-enabled fleet never cloned on scale-up")
	}
	if clone.FullColdStarts != 0 {
		t.Fatalf("clone-enabled fleet ran %d full pipelines beyond the pre-warmed floor", clone.FullColdStarts)
	}
	if clone.CloneLatency.Max() >= full.FullColdLatency.Min() {
		t.Fatalf("slowest clone (%.2f ms) not below fastest full cold start (%.2f ms)",
			clone.CloneLatency.Max(), full.FullColdLatency.Min())
	}
	if clone.ColdStartCost >= full.ColdStartCost {
		t.Fatalf("clone fleet cold-start bill %v not below keep-alive fleet's %v",
			clone.ColdStartCost, full.ColdStartCost)
	}
}

// TestFleetReapsOrphanedNeverServedContainer: a scale-up whose queued
// request drained elsewhere during its cold start (so it never serves) is
// still reaped once idle past the TTL — measured from when it became
// serveable — and therefore cannot block scale-to-zero.
func TestFleetReapsOrphanedNeverServedContainer(t *testing.T) {
	cfg := testConfig(isolation.ModeGH)
	cfg.CloneScaleOut = true
	cfg.ScaleToZeroAfter = cfg.KeepAlive
	f, err := NewFleet(cfg, testLoads(t, 5)[:1])
	if err != nil {
		t.Fatal(err)
	}
	fs := f.fns[0]
	if _, err := fs.pools[0].AddContainer(); err != nil { // orphan: never serves
		t.Fatal(err)
	}
	f.engine.Run()
	f.reapIdle(fs, f.engine.Now()+sim.Time(time.Hour))
	if got := len(fs.pools[0].Containers()); got != 0 {
		t.Fatalf("pool = %d; orphaned never-served container blocked scale-to-zero", got)
	}
	if fs.stats.ScaledToZero != 1 {
		t.Fatalf("scaledToZero = %d, want 1", fs.stats.ScaledToZero)
	}
	if got := f.kern.Phys.InUse(); got != 0 {
		t.Fatalf("%d frames still in use", got)
	}
}
