package trace

import (
	"testing"
	"time"

	"groundhog/internal/isolation"
	"groundhog/internal/sim"
)

func TestFixedTTLDecisions(t *testing.T) {
	p := FixedTTL{KeepAlive: time.Second, ScaleToZeroAfter: 3 * time.Second}
	var sig Signals
	if p.ScaleUp(sig) != 1 || p.WarmFloor(sig) != 1 || !p.EvictImage(sig) {
		t.Fatal("FixedTTL must scale one, keep a floor of one, and always evict")
	}
	if p.Reap(sig, time.Second, false) {
		t.Fatal("reaped at exactly the TTL (must be strictly beyond)")
	}
	if !p.Reap(sig, time.Second+1, false) {
		t.Fatal("did not reap beyond the TTL")
	}
	if p.Reap(sig, 2*time.Second, true) {
		t.Fatal("scale-to-zero fired below its TTL")
	}
	if !p.Reap(sig, 3*time.Second+1, true) {
		t.Fatal("scale-to-zero never fired")
	}
	if (FixedTTL{KeepAlive: time.Second}).Reap(sig, time.Hour, true) {
		t.Fatal("scale-to-zero fired with a zero TTL (disabled)")
	}
}

func TestSLOAwareProtectsSLO(t *testing.T) {
	p := SLOAware{}
	over := Signals{P95E2EMs: 150, SLOTargetMs: 100, QueueDepth: 5,
		ArrivalRatePerSec: 50, MeanServiceMs: 60,
		MeanCloneColdMs: 1, CloneReady: true}
	if p.Reap(over, time.Hour, false) || p.Reap(over, time.Hour, true) {
		t.Fatal("reaped while the p95 was over target")
	}
	if got := p.ScaleUp(over); got != 5 {
		t.Fatalf("ScaleUp over target = %d, want the whole queue (5)", got)
	}
	// Offered load 50/s x 60ms service (not E2E, which would feed
	// queueing back into the floor) = 3 containers.
	if got := p.WarmFloor(over); got != 3 {
		t.Fatalf("WarmFloor over target = %d, want 3", got)
	}

	// Cold starts already in flight cover part of the queue: ScaleUp must
	// not re-add them on the next dispatch round.
	warming := over
	warming.Warming = 3
	if got := p.ScaleUp(warming); got != 2 {
		t.Fatalf("ScaleUp with 3 warming = %d, want 2 (queue 5 minus in-flight 3)", got)
	}
	warming.Warming = 7
	if got := p.ScaleUp(warming); got != 0 {
		t.Fatalf("ScaleUp with queue fully covered = %d, want 0", got)
	}

	under := over
	under.P95E2EMs = 40
	if got := p.WarmFloor(under); got != 1 {
		t.Fatalf("WarmFloor under target = %d, want 1", got)
	}
	// Under target with ~1ms clones: the idle TTL is ~10ms, so pools
	// collapse between bursts...
	if !p.Reap(under, 20*time.Millisecond, false) {
		t.Fatal("did not reap an idle container despite cheap clones")
	}
	// ...and scale-to-zero follows at 4x that.
	if p.Reap(under, 20*time.Millisecond, true) {
		t.Fatal("dropped the floor before the 4x margin")
	}
	if !p.Reap(under, 50*time.Millisecond, true) {
		t.Fatal("never scaled to zero despite cheap clones")
	}
	// The image is what keeps revival cheap: never evicted at real rates.
	if p.EvictImage(under) {
		t.Fatal("evicted the image at 50 req/s")
	}
	if !p.EvictImage(Signals{ArrivalRatePerSec: 0.01}) {
		t.Fatal("kept the image after traffic stopped")
	}
}

func TestSLOAwareNeverStrandsRevival(t *testing.T) {
	p := SLOAware{}
	// No clone path: dropping the last container would re-impose the full
	// pipeline, so the floor holds no matter how idle.
	sig := Signals{P95E2EMs: 40, SLOTargetMs: 100, MeanFullColdMs: 600}
	if p.Reap(sig, time.Hour, true) {
		t.Fatal("scaled to zero without a clone path")
	}
	if !p.Reap(sig, 7*time.Second, false) {
		t.Fatal("tier-one reap must still work from the full-pipeline cost (6s TTL)")
	}
	// Nothing observed at all: revival cost unknown, keep everything.
	if p.Reap(Signals{P95E2EMs: 40, SLOTargetMs: 100}, time.Hour, false) {
		t.Fatal("reaped with no cold start ever observed")
	}
}

func TestCostMinimizingBreakEven(t *testing.T) {
	p := CostMinimizing{} // rent: 100 virtual µs per page-second
	// 2000 resident pages over 2 containers, full cold start 600ms =
	// 600000 µs: break-even = 600000 / (1000 x 100) = 6s.
	sig := Signals{PoolSize: 2, MeanFullColdMs: 600, ResidentPages: 2000}
	if p.Reap(sig, 5*time.Second, false) {
		t.Fatal("reaped below the 6s break-even")
	}
	if !p.Reap(sig, 7*time.Second, false) {
		t.Fatal("kept a container past its break-even")
	}
	// With ~1ms clones the same container breaks even in ~10ms.
	sig.CloneReady, sig.MeanCloneColdMs = true, 1
	if !p.Reap(sig, 20*time.Millisecond, false) {
		t.Fatal("cheap clones must shorten the break-even")
	}
	if p.Reap(Signals{PoolSize: 1}, time.Hour, false) {
		t.Fatal("reaped with no observed cold-start cost")
	}
	// Image eviction: at high rates the image pays for itself...
	img := Signals{ArrivalRatePerSec: 50, MeanFullColdMs: 600, MeanCloneColdMs: 1,
		StateStoreBytes: 800 * 4096}
	if p.EvictImage(img) {
		t.Fatal("evicted a profitable image")
	}
	// ...at a trickle it rents for more than the pipeline it saves.
	img.ArrivalRatePerSec = 0.05
	if !p.EvictImage(img) {
		t.Fatal("kept an image that rents for more than it saves")
	}
}

func TestAdviseCoversAllPolicies(t *testing.T) {
	sig := Signals{QueueDepth: 3, PoolSize: 1, SLOTargetMs: 100, P95E2EMs: 40,
		MeanCloneColdMs: 1, CloneReady: true}
	adv := Advise(sig, 30*time.Millisecond,
		FixedTTL{KeepAlive: time.Second}, SLOAware{}, CostMinimizing{})
	if len(adv) != 3 {
		t.Fatalf("advice entries = %d, want 3", len(adv))
	}
	names := map[string]bool{}
	for _, a := range adv {
		names[a.Policy] = true
		if a.WarmFloor < 1 || a.ScaleUp < 1 {
			t.Fatalf("%s: degenerate advice %+v", a.Policy, a)
		}
	}
	for _, want := range []string{"fixed-ttl", "slo-aware", "cost-min"} {
		if !names[want] {
			t.Fatalf("advice missing %q", want)
		}
	}
}

// TestSignalsDoNotMutateStats: reading the latency signals must not
// disturb the per-function stats or the observation rings —
// bit-compatibility of the FixedTTL path depends on signal reads being
// side-effect free, and repeated reads must agree.
func TestSignalsDoNotMutateStats(t *testing.T) {
	cfg := testConfig(isolation.ModeBase)
	cfg.Policy = SLOAware{} // a signal-reading policy: the default FixedTTL skips p95
	f, err := NewFleet(cfg, testLoads(t, 5)[:1])
	if err != nil {
		t.Fatal(err)
	}
	fs := f.fns[0]
	for _, v := range []float64{5, 1, 4, 2, 3} {
		fs.stats.E2E.AddDuration(time.Duration(v) * time.Millisecond)
		fs.observeLatency(v, v/2)
	}
	stats := func() [4]float64 {
		r := fs.stats.E2E
		return [4]float64{float64(r.N()), r.Mean(), r.Median(), r.P99()}
	}
	before := stats()
	ringBefore := append([]float64(nil), fs.recentE2E...)
	sig := f.signals(fs, f.engine.Now())
	if sig.P95E2EMs <= 0 || sig.MeanServiceMs <= 0 {
		t.Fatalf("missing latency signals: %+v", sig)
	}
	if after := stats(); after != before {
		t.Fatalf("signal read moved the stats: %v -> %v", before, after)
	}
	for i := range ringBefore {
		if fs.recentE2E[i] != ringBefore[i] {
			t.Fatalf("signal read reordered the ring: %v -> %v", ringBefore, fs.recentE2E)
		}
	}
	if again := f.signals(fs, f.engine.Now()); again.P95E2EMs != sig.P95E2EMs {
		t.Fatalf("repeated signal read moved: %v -> %v", sig.P95E2EMs, again.P95E2EMs)
	}
}

// TestSignalsSumEveryPoolsFootprint: the policy's two memory signals are
// the function's pools' Memory figures, summed. The cluster's half, with
// nil pool slots, is cluster.TestClusterSignalsSumFootprint.
func TestSignalsSumEveryPoolsFootprint(t *testing.T) {
	cfg := testConfig(isolation.ModeGH)
	cfg.CloneScaleOut = true
	cfg.Policy = CostMinimizing{}
	f, err := NewFleet(cfg, testLoads(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, fs := range f.fns {
		var pages, bytes int
		for _, pl := range fs.pools {
			st := pl.Memory()
			pages += st.ResidentPages
			bytes += st.StateStoreBytes
		}
		sig := f.signals(fs, f.engine.Now())
		if sig.ResidentPages != pages || sig.StateStoreBytes != bytes {
			t.Fatalf("%s: signals report %d pages, %d bytes; the pools' Memory %d pages, %d bytes",
				fs.stats.Name, sig.ResidentPages, sig.StateStoreBytes, pages, bytes)
		}
		seen += pages
	}
	if seen == 0 {
		t.Fatal("no function holds a resident page after Run: nothing compared")
	}
	if left := f.Teardown(); left != 0 {
		t.Fatalf("%d frames left after teardown", left)
	}
}

// TestSignalFreedomFollowsResolvedPolicy: the dispatcher skips observation
// for a function whose own resolved policy is a FixedTTL, whatever the
// fleet default is — a FixedTTL override under an SLOAware default keeps
// its arrival and latency rings empty, and an SLOAware override under the
// nil default (a FixedTTL) fills them.
func TestSignalFreedomFollowsResolvedPolicy(t *testing.T) {
	for _, tc := range []struct {
		name        string
		fleet, load Policy
		free        bool
	}{
		{"fixed-ttl override under slo-aware", SLOAware{}, FixedTTL{KeepAlive: time.Second}, true},
		{"slo-aware override under nil default", nil, SLOAware{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(isolation.ModeBase)
			cfg.Policy = tc.fleet
			loads := testLoads(t, 10)[:1]
			loads[0].Policy = tc.load
			f, err := NewFleet(cfg, loads)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Run(); err != nil {
				t.Fatal(err)
			}
			fs := f.fns[0]
			rings := len(fs.arrivalTimes) + len(fs.recentE2E) + len(fs.recentSvc)
			if fs.signalFree != tc.free || (rings == 0) != tc.free {
				t.Fatalf("signalFree = %v with %d ring entries, want signal-free %v", fs.signalFree, rings, tc.free)
			}
		})
	}
}

// TestSignalsWindowAgesOut: the latency and rate estimators are sliding
// windows — an early SLO breach (or an old traffic burst) ages out instead
// of latching the policy for the rest of the run.
func TestSignalsWindowAgesOut(t *testing.T) {
	cfg := testConfig(isolation.ModeBase)
	cfg.Policy = SLOAware{}
	f, err := NewFleet(cfg, testLoads(t, 5)[:1])
	if err != nil {
		t.Fatal(err)
	}
	fs := f.fns[0]
	// A terrible early period...
	for i := 0; i < latencyWindow; i++ {
		fs.observeLatency(500, 20)
	}
	if sig := f.signals(fs, f.engine.Now()); sig.P95E2EMs < 400 {
		t.Fatalf("breach not visible: p95 = %v", sig.P95E2EMs)
	}
	// ...fully displaced by a healthy one.
	for i := 0; i < latencyWindow; i++ {
		fs.observeLatency(20, 10)
	}
	if sig := f.signals(fs, f.engine.Now()); sig.P95E2EMs > 30 {
		t.Fatalf("early breach latched: p95 = %v after recovery", sig.P95E2EMs)
	}
	// Rate decays once traffic stops: a 10/s burst looks like ~0 after an
	// idle hour.
	for i := 0; i < arrivalWindow; i++ {
		fs.observeArrival(sim.Time(i) * sim.Time(100*time.Millisecond))
	}
	burstEnd := sim.Time(arrivalWindow) * sim.Time(100*time.Millisecond)
	if sig := f.signals(fs, burstEnd); sig.ArrivalRatePerSec < 5 {
		t.Fatalf("rate during burst = %v, want ~10/s", sig.ArrivalRatePerSec)
	}
	if sig := f.signals(fs, burstEnd+sim.Time(time.Hour)); sig.ArrivalRatePerSec > 0.1 {
		t.Fatalf("rate an hour after the burst = %v, want ~0", sig.ArrivalRatePerSec)
	}
}

// TestFleetSLOAwareCollapsesPools is the trace-level half of the policy
// acceptance pin: on a bursty clone-enabled fleet, SLOAware serves the same
// requests as FixedTTL with a strictly lower mean frame count, scaling to
// zero between bursts while keeping the image so revivals stay clones.
func TestFleetSLOAwareCollapsesPools(t *testing.T) {
	run := func(pol Policy) (*Result, *FunctionStats) {
		cfg := testConfig(isolation.ModeGH)
		cfg.CloneScaleOut = true
		cfg.KeepAlive = 600 * time.Millisecond
		cfg.ScaleToZeroAfter = 1800 * time.Millisecond
		cfg.Window = 4 * time.Second
		cfg.SLOTargetMs = 100
		cfg.Policy = pol
		loads := testLoads(t, 40)[:1]
		loads[0].Burstiness = 4
		f, err := NewFleet(cfg, loads)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, res.PerFunction[0]
	}
	fixedRes, fixedFn := run(nil) // nil = FixedTTL from the TTL config
	sloRes, sloFn := run(SLOAware{})

	if fixedFn.Requests != sloFn.Requests {
		t.Fatalf("request counts diverge: fixed %d, slo %d", fixedFn.Requests, sloFn.Requests)
	}
	if sloFn.ScaledToZero == 0 {
		t.Fatal("SLOAware never scaled to zero on a bursty trace")
	}
	if sloFn.ImagesEvicted != 0 {
		t.Fatalf("SLOAware evicted %d images at 40 req/s", sloFn.ImagesEvicted)
	}
	if sloFn.FullColdStarts != 0 {
		t.Fatalf("SLOAware paid %d full pipelines; revival must stay a clone", sloFn.FullColdStarts)
	}
	if sloRes.MeanFrames >= fixedRes.MeanFrames {
		t.Fatalf("SLOAware mean frames %.0f not below FixedTTL %.0f",
			sloRes.MeanFrames, fixedRes.MeanFrames)
	}
	if got := sloFn.E2E.Percentile(95); got > 100 {
		t.Fatalf("SLOAware p95 %.1f ms misses the 100 ms target", got)
	}
}

// TestFleetMeanFramesIntegral: the frame integral covers the whole window —
// an all-idle fleet's mean equals its constant frame count.
func TestFleetMeanFramesIntegral(t *testing.T) {
	cfg := testConfig(isolation.ModeBase)
	cfg.KeepAlive = 10 * time.Second // no reaping within the window
	f, err := NewFleet(cfg, testLoads(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanFrames <= 0 {
		t.Fatal("no frame integral")
	}
	if res.MeanFrames > float64(res.PeakFrames) {
		t.Fatalf("mean frames %.0f above peak %d", res.MeanFrames, res.PeakFrames)
	}
	lo := 0.5 * float64(res.EndFrames)
	if res.MeanFrames < lo {
		t.Fatalf("mean frames %.0f implausibly low (end %d)", res.MeanFrames, res.EndFrames)
	}
}

// TestFleetScaleUpBatch: a policy that returns the queue depth adds several
// containers in one decision (clamped to the pool cap).
func TestFleetScaleUpBatch(t *testing.T) {
	cfg := testConfig(isolation.ModeGH)
	cfg.CloneScaleOut = true
	cfg.Policy = SLOAware{}
	f, err := NewFleet(cfg, testLoads(t, 5)[:1])
	if err != nil {
		t.Fatal(err)
	}
	fs := f.fns[0]
	// Saturate the single warm container, then queue three arrivals.
	now := f.engine.Now()
	if _, err := fs.pools[0].Serve(fs.pools[0].Containers()[0], ""); err != nil {
		t.Fatal(err)
	}
	fs.queue = append(fs.queue, queuedReq{at: now}, queuedReq{at: now}, queuedReq{at: now})
	f.dispatch(fs)
	// Cap 3: the one busy container plus two scale-ups.
	if got := len(fs.pools[0].Containers()); got != cfg.MaxContainersPerFunction {
		t.Fatalf("pool = %d after batch scale-up, want the cap %d", got, cfg.MaxContainersPerFunction)
	}
	if fs.stats.ColdStarts != cfg.MaxContainersPerFunction-1 {
		t.Fatalf("cold starts = %d, want %d", fs.stats.ColdStarts, cfg.MaxContainersPerFunction-1)
	}
}

// TestFleetPolicyKeepsImageOnScaleToZero: with a policy that retains the
// image, scale-to-zero leaves the template behind and the revival is a
// clone, not a pipeline.
func TestFleetPolicyKeepsImageOnScaleToZero(t *testing.T) {
	cfg := testConfig(isolation.ModeGH)
	cfg.CloneScaleOut = true
	cfg.SLOTargetMs = 100
	cfg.Policy = SLOAware{}
	f, err := NewFleet(cfg, testLoads(t, 5)[:1])
	if err != nil {
		t.Fatal(err)
	}
	fs := f.fns[0]
	// Serve once so latency signals exist, then scale up to observe a
	// clone cold start (the reap TTL derives from it).
	if _, err := fs.pools[0].Serve(fs.pools[0].Containers()[0], ""); err != nil {
		t.Fatal(err)
	}
	c, err := fs.pools[0].AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	cold := c.ColdStart()
	if cold.ClonedFrom < 0 {
		t.Fatal("scale-up did not clone")
	}
	fs.stats.CloneColdStarts++
	fs.cloneColdMs += float64(cold.Total) / float64(time.Millisecond)
	fs.stats.E2E.AddDuration(5 * time.Millisecond)
	fs.observeLatency(5, 3)
	f.engine.Run()

	// Reap shortly after the last activity (the SLOAware scale-to-zero TTL
	// is ~4x10x the clone cost, well under a second here) with live recent
	// arrivals, so the rate signal stays above the eviction threshold.
	reapAt := f.engine.Now() + sim.Time(time.Second)
	for i := 0; i < 8; i++ {
		fs.observeArrival(f.engine.Now())
	}
	f.reapIdle(fs, reapAt)
	if got := len(fs.pools[0].Containers()); got != 0 {
		t.Fatalf("pool = %d after scale-to-zero", got)
	}
	if fs.stats.ScaledToZero != 1 || fs.stats.ImagesEvicted != 0 {
		t.Fatalf("scaledToZero=%d imagesEvicted=%d, want 1/0 (image retained)",
			fs.stats.ScaledToZero, fs.stats.ImagesEvicted)
	}
	if f.kern.Phys.InUse() == 0 {
		t.Fatal("image frames gone despite retention")
	}
	revived, err := fs.pools[0].AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	if revived.ColdStart().ClonedFrom < 0 {
		t.Fatal("revival from zero replayed the pipeline; template was lost")
	}
	fs.pools[0].RemoveContainer(revived)

	// A kept image is re-evaluated at every tick on the empty pool: once
	// the rate estimate has decayed past the eviction threshold (traffic
	// stopped), the verdict flips and the image's frames are released.
	if fs.stats.ImagesEvicted != 0 {
		t.Fatalf("imagesEvicted = %d before the decay", fs.stats.ImagesEvicted)
	}
	f.reapIdle(fs, reapAt+sim.Time(2*time.Hour))
	if fs.stats.ImagesEvicted != 1 {
		t.Fatalf("imagesEvicted = %d, want 1 (kept image must be re-evaluated)", fs.stats.ImagesEvicted)
	}
	if got := f.kern.Phys.InUse(); got != 0 {
		t.Fatalf("%d frames still in use after the late eviction", got)
	}
}
