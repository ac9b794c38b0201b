package faas

import (
	"errors"
	"testing"

	"groundhog/internal/core"
	"groundhog/internal/faults"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/sim"
)

// emptyArmedPlatform deploys zero containers of mode with the given fault
// plan armed on a fresh kernel — the plan must be in place before the first
// cold start so every seam sees it.
func emptyArmedPlatform(t *testing.T, mode isolation.Mode, plan faults.Plan) *Platform {
	t.Helper()
	kern := kernel.New(kernel.Default())
	kern.Faults = faults.New(plan)
	pl, err := NewPlatformOn(sim.NewEngine(), kern, testProfile(), mode, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// armedPlatform deploys one warm container of mode with clone scale-out
// enabled and the given fault plan armed.
func armedPlatform(t *testing.T, mode isolation.Mode, plan faults.Plan) *Platform {
	t.Helper()
	pl := emptyArmedPlatform(t, mode, plan)
	pl.CloneScaleOut = true
	if _, err := pl.AddWarmContainer(); err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestInvokeOnceNoContainersSentinel(t *testing.T) {
	pl := newPlatform(t, isolation.ModeGH, 1)
	pl.RemoveContainer(pl.Containers()[0])
	_, err := pl.InvokeOnce("")
	if !errors.Is(err, ErrNoContainers) {
		t.Fatalf("InvokeOnce on empty pool = %v, want ErrNoContainers", err)
	}
	if !IsTransient(err) {
		t.Fatal("ErrNoContainers must be transient")
	}
	if _, err := pl.RunClosedLoop(1, 0); !errors.Is(err, ErrNoContainers) {
		t.Fatalf("RunClosedLoop on empty pool = %v, want ErrNoContainers", err)
	}
	if _, err := pl.RunCallers([]string{"a"}, 0); !errors.Is(err, ErrNoContainers) {
		t.Fatalf("RunCallers on empty pool = %v, want ErrNoContainers", err)
	}
}

// TestEnsureExportedImageNoDonor: a deployment without a clone template —
// clone scale-out off, or a mode that records no snapshot — has no image to
// export and says so with a plain error.
func TestEnsureExportedImageNoDonor(t *testing.T) {
	if _, _, err := newPlatform(t, isolation.ModeGH, 1).EnsureExportedImage(nil); err == nil {
		t.Fatal("export with clone scale-out off succeeded")
	}
	if _, _, err := clonePlatform(t, isolation.ModeFork).EnsureExportedImage(nil); err == nil {
		t.Fatal("fork pool export succeeded")
	}
	gh := clonePlatform(t, isolation.ModeGH)
	if _, _, err := gh.EnsureExportedImage(nil); err != nil {
		t.Fatalf("GH pool export failed: %v", err)
	}
}

func TestColdStartRetryWithBackoff(t *testing.T) {
	// The container's first pipeline attempt fails; the retry succeeds and
	// the backoff is folded into its readiness.
	pl := emptyArmedPlatform(t, isolation.ModeGH, faults.Plan{Schedule: map[faults.Site][]uint64{
		faults.SiteColdStart: {1},
	}})
	base := pl.Kern.Phys.InUse()
	c, err := pl.AddContainer()
	if err != nil {
		t.Fatalf("AddContainer did not recover: %v", err)
	}
	if cs := c.ColdStart(); cs.Total < ColdStartBackoffBase {
		t.Fatalf("backoff not folded into Total: %+v", cs)
	}
	rec := pl.Recovery()
	if rec.ColdStartRetries != 1 || rec.RetryBackoff != ColdStartBackoffBase {
		t.Fatalf("recovery = %+v", rec)
	}
	// The failed attempt's process was reaped: only the survivor's frames
	// remain after removing it.
	pl.RemoveContainer(c)
	pl.EvictImage()
	if got := pl.Kern.Phys.InUse(); got != base {
		t.Fatalf("frames in use = %d after teardown, want %d (failed attempt leaked)", got, base)
	}
}

func TestColdStartRetryBudgetExhausted(t *testing.T) {
	pl := emptyArmedPlatform(t, isolation.ModeGH, faults.Plan{Schedule: map[faults.Site][]uint64{
		faults.SiteColdStart: {1, 2, 3, 4},
	}})
	_, err := pl.AddContainer()
	if !errors.Is(err, ErrColdStartFailed) {
		t.Fatalf("exhausted budget = %v, want ErrColdStartFailed", err)
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("cause not preserved through wrapping: %v", err)
	}
	if !IsTransient(err) {
		t.Fatal("exhausted cold start must be transient")
	}
	if pl.Kern.Phys.InUse() != 0 {
		t.Fatalf("failed attempts leaked %d frames", pl.Kern.Phys.InUse())
	}
}

func TestCloneSpawnFaultFallsBackToPipeline(t *testing.T) {
	pl := armedPlatform(t, isolation.ModeGH, faults.Plan{Schedule: map[faults.Site][]uint64{
		faults.SiteCloneSpawn: {1},
	}})
	c, err := pl.AddContainer()
	if err != nil {
		t.Fatalf("scale-up did not recover: %v", err)
	}
	cs := c.ColdStart()
	if cs.ClonedFrom != -1 {
		t.Fatalf("expected full-pipeline fallback, got %+v", cs)
	}
	if cs.EnvInstantiation == 0 {
		t.Fatal("fallback container skipped the pipeline")
	}
	if pl.Recovery().CloneFallbacks != 1 {
		t.Fatalf("recovery = %+v, want 1 clone fallback", pl.Recovery())
	}
	// The next scale-up clones cleanly again (the template survived one
	// failure).
	c2, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	if c2.ColdStart().ClonedFrom == -1 {
		t.Fatal("template lost after a single recoverable failure")
	}
}

func TestExportFaultFallsBackAndBalancesFrames(t *testing.T) {
	pl := armedPlatform(t, isolation.ModeGH, faults.Plan{Schedule: map[faults.Site][]uint64{
		faults.SiteSnapshotExport: {1},
	}})
	base := pl.Kern.Phys.InUse()
	c, err := pl.AddContainer()
	if err != nil {
		t.Fatalf("scale-up did not recover: %v", err)
	}
	if c.ColdStart().ClonedFrom != -1 || pl.Recovery().CloneFallbacks != 1 {
		t.Fatalf("expected fallback after export abort, got %+v, %+v", c.ColdStart(), pl.Recovery())
	}
	// The aborted export unwound every frame it acquired: removing the
	// fallback container returns the pool to its pre-scale-up level.
	pl.RemoveContainer(c)
	pl.EvictImage()
	if got := pl.Kern.Phys.InUse(); got != base {
		t.Fatalf("frames in use = %d, want %d (aborted export leaked)", got, base)
	}
}

func TestImageCorruptionDetectedAndEvicted(t *testing.T) {
	pl := clonePlatform(t, isolation.ModeGH)
	// Export the image via a clean clone first.
	if _, err := pl.AddContainer(); err != nil {
		t.Fatal(err)
	}
	if !pl.CorruptImage() {
		t.Fatal("CorruptImage found no exported image")
	}
	// Even on a disarmed platform the corruption flag fails verification:
	// the clone path falls back and evicts the image.
	c, err := pl.AddContainer()
	if err != nil {
		t.Fatalf("scale-up did not recover from corruption: %v", err)
	}
	if cs := c.ColdStart(); cs.ClonedFrom != -1 {
		t.Fatalf("expected full-pipeline fallback, got %+v", cs)
	}
	rec := pl.Recovery()
	if rec.ImageIntegrityFailures != 1 || rec.CloneFallbacks != 1 {
		t.Fatalf("recovery = %+v, want 1 integrity failure and 1 clone fallback", rec)
	}
	if pl.CorruptImage() {
		t.Fatal("corrupt image not evicted")
	}
}

func TestChecksumDetectsRealFrameCorruption(t *testing.T) {
	// On an armed platform the export records a checksum over the image
	// frames; flipping a byte in a shared frame must fail verification.
	pl := armedPlatform(t, isolation.ModeGH, faults.Plan{
		Rates: map[faults.Site]float64{faults.SiteImageCorrupt: 0.0},
	})
	clone, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	img := pl.template.image
	if img == nil {
		t.Fatal("no exported image")
	}
	if !img.Verify(0, nil) {
		t.Fatal("pristine image failed verification")
	}
	// Corrupt one image frame in place, reached through the fresh clone's
	// page table: every page of it still maps the image's frame.
	as := clone.Instance().Proc.AS
	pte, ok := as.PTEAt(as.ResidentVPNs()[0])
	if !ok {
		t.Fatal("no frame to corrupt")
	}
	frames := pl.Kern.Phys
	page := frames.Snapshot(pte.Frame)
	if page == nil {
		page = make([]byte, mem.PageSize)
	}
	page[0] ^= 0xFF
	frames.RestoreInto(pte.Frame, page)
	if img.Verify(0, nil) {
		t.Fatal("verification passed over corrupted frame bytes")
	}
}

func TestDonorQuarantineAfterRepeatedCloneFailures(t *testing.T) {
	pl := armedPlatform(t, isolation.ModeGH, faults.Plan{Schedule: map[faults.Site][]uint64{
		faults.SiteCloneSpawn: {1, 2, 3},
	}})
	donorID := pl.Containers()[0].ID
	for i := 0; i < 3; i++ {
		if _, err := pl.AddContainer(); err != nil {
			t.Fatalf("scale-up %d did not recover: %v", i, err)
		}
	}
	rec := pl.Recovery()
	if rec.CloneFallbacks != 3 {
		t.Fatalf("CloneFallbacks = %d, want 3", rec.CloneFallbacks)
	}
	if rec.DonorsQuarantined != 1 {
		t.Fatalf("DonorsQuarantined = %d, want 1", rec.DonorsQuarantined)
	}
	// The quarantined donor never donates again: the next clone captures a
	// different (healthy, pristine) container.
	c, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	cs := c.ColdStart()
	if cs.ClonedFrom == donorID {
		t.Fatalf("quarantined donor %d donated again", donorID)
	}
	if cs.ClonedFrom == -1 {
		t.Fatal("no recapture from a healthy donor")
	}
}

func TestMidRequestCrashTearsDownContainer(t *testing.T) {
	for _, mode := range []isolation.Mode{isolation.ModeGH, isolation.ModeFork} {
		t.Run(string(mode), func(t *testing.T) {
			pl := emptyArmedPlatform(t, mode, faults.Plan{Schedule: map[faults.Site][]uint64{
				faults.SiteRequestCrash: {1},
			}})
			if _, err := pl.AddWarmContainer(); err != nil {
				t.Fatal(err)
			}
			c := pl.Containers()[0]
			_, err := pl.Serve(c, "")
			if !errors.Is(err, ErrContainerCrashed) {
				t.Fatalf("Serve = %v, want ErrContainerCrashed", err)
			}
			if !IsTransient(err) {
				t.Fatal("crash must be transient")
			}
			if len(pl.Containers()) != 0 {
				t.Fatal("crashed container still pooled")
			}
			// Teardown released everything, including a fork strategy's
			// in-flight child.
			if got := pl.Kern.Phys.InUse(); got != 0 {
				t.Fatalf("crash leaked %d frames", got)
			}
		})
	}
}

// TestPostResponseRestoreFaultLosesContainerNotRequest: a restore that fails
// after the response cannot fail the request. It is torn down instead, and
// counts no rollback, both when the cleanup runs right after the response
// (Serve) and when the live plane runs it after the reply has left (Respond,
// then Settle).
func TestPostResponseRestoreFaultLosesContainerNotRequest(t *testing.T) {
	for _, route := range []struct {
		name  string
		serve func(*Platform) error
	}{
		{"serve", func(pl *Platform) error {
			_, err := pl.Serve(pl.Containers()[0], "")
			return err
		}},
		{"respond-settle", func(pl *Platform) error {
			if _, err := pl.Respond(""); err != nil {
				return err
			}
			_, err := pl.Settle()
			return err
		}},
	} {
		t.Run(route.name, func(t *testing.T) {
			pl := emptyArmedPlatform(t, isolation.ModeGH, faults.Plan{Schedule: map[faults.Site][]uint64{
				faults.SiteRestore: {1},
			}})
			if _, err := pl.AddWarmContainer(); err != nil {
				t.Fatal(err)
			}
			if err := route.serve(pl); err != nil {
				t.Fatalf("the response was delivered; the request must not fail: %v", err)
			}
			if len(pl.Containers()) != 0 {
				t.Fatal("container with failed rollback still pooled")
			}
			if pl.Recovery().RestoreFaults != 1 || pl.Restores() != 0 {
				t.Fatalf("recovery = %+v, %d restores; want 1 restore fault and no restore counted", pl.Recovery(), pl.Restores())
			}
			if got := pl.Kern.Phys.InUse(); got != 0 {
				t.Fatalf("teardown leaked %d frames", got)
			}
		})
	}
}

// TestFramesBalanceUnderRandomFaultPlans holds both StateStore kinds, with
// clone scale-out on, to the frame balance under seeded random fault plans:
// a random sequence of scale-ups, requests, removals and image evictions,
// then a teardown, gives back every frame the deployment took. The plans
// arm random subsets of the sites at up to 20%, so failed pipelines, clone
// fallbacks, corrupted images, crashes and lost containers are all torn
// down along the way. A failure reproduces from its logged seed.
func TestFramesBalanceUnderRandomFaultPlans(t *testing.T) {
	for _, store := range []core.StoreKind{core.StoreCopy, core.StoreCoW} {
		clones, recoveries := 0, 0
		for seed := uint64(1); seed <= 8; seed++ {
			gen := sim.NewRand(seed * 0x9E3779B97F4A7C15)
			plan := faults.Plan{Seed: gen.Uint64(), Rates: map[faults.Site]float64{}}
			for _, site := range faults.Sites {
				if gen.Float64() < 0.5 {
					plan.Rates[site] = gen.Float64() * 0.2
				}
			}
			pl := emptyArmedPlatform(t, isolation.ModeGH, plan)
			before := pl.Kern.Phys.InUse() // nothing deployed yet
			pl.Store = store
			pl.CloneScaleOut = true
			for op := 0; op < 40; op++ {
				cs := pl.Containers()
				switch k := gen.Intn(10); {
				case k < 3 || len(cs) == 0:
					c, err := pl.AddContainer()
					if err != nil && !IsTransient(err) {
						t.Fatalf("store %v seed %d op %d: AddContainer: %v", store, seed, op, err)
					}
					if err == nil && c.ColdStart().ClonedFrom >= 0 {
						clones++
					}
				case k < 7:
					c := cs[gen.Intn(len(cs))]
					pl.Engine.RunUntil(c.Ready())
					if _, err := pl.Serve(c, ""); err != nil && !errors.Is(err, ErrContainerCrashed) {
						t.Fatalf("store %v seed %d op %d: Serve: %v", store, seed, op, err)
					}
				case k < 9:
					pl.RemoveContainer(cs[gen.Intn(len(cs))])
				default:
					pl.EvictImage()
				}
			}
			rec := pl.Recovery()
			recoveries += rec.ColdStartRetries + rec.CloneFallbacks + rec.Crashes + rec.RestoreFaults
			for len(pl.Containers()) > 0 {
				pl.RemoveContainer(pl.Containers()[0])
			}
			pl.EvictImage()
			if got := pl.Kern.Phys.InUse(); got != before {
				t.Fatalf("store %v seed %d: %d frames in use after teardown, want %d (plan %+v)",
					store, seed, got, before, plan)
			}
		}
		if clones == 0 || recoveries == 0 {
			t.Fatalf("store %v: %d clones and %d recoveries over all seeds; the sequences reach neither path", store, clones, recoveries)
		}
	}
}

func TestDisarmedPlatformIdenticalRequests(t *testing.T) {
	// A platform with an explicit empty plan behaves bit-identically to one
	// with no plan at all: the seams are zero-cost when disarmed.
	run := func(plan faults.Plan) []RequestStats {
		pl, err := NewPlatform(kernel.Default(), testProfile(), isolation.ModeGH, 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		pl.Kern.Faults = faults.New(plan)
		stats, err := pl.RunClosedLoop(5, 0)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(faults.Plan{}), run(faults.Plan{})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
