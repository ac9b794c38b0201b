package faas

import (
	"reflect"
	"testing"

	"groundhog/internal/core"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/sim"
)

// clonePlatform deploys one warm container of mode with clone scale-out
// enabled before it, so its cold start captures the clone template.
func clonePlatform(t testing.TB, mode isolation.Mode) *Platform {
	t.Helper()
	pl, err := NewPlatformOn(sim.NewEngine(), kernel.New(kernel.Default()), testProfile(), mode, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	pl.CloneScaleOut = true
	if _, err := pl.AddWarmContainer(); err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestCloneColdStartSkipsPipeline(t *testing.T) {
	pl := clonePlatform(t, isolation.ModeGH)
	full := pl.Containers()[0].ColdStart()
	if full.ClonedFrom != -1 {
		t.Fatalf("first container reports donor %d; must run the full pipeline", full.ClonedFrom)
	}

	c1, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	cs1 := c1.ColdStart()
	if cs1.ClonedFrom != pl.Containers()[0].ID {
		t.Fatalf("clone donor = %d, want %d", cs1.ClonedFrom, pl.Containers()[0].ID)
	}
	if cs1.EnvInstantiation != 0 || cs1.RuntimeInit != 0 || cs1.StrategyInit != 0 {
		t.Fatalf("clone paid pipeline phases: %+v", cs1)
	}
	if cs1.Total <= 0 {
		t.Fatalf("clone cost not accounted: %+v", cs1)
	}
	// The first clone pays the one-time image export; later clones are
	// cheaper still. Both must be at least 10x below the full pipeline.
	c2, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	cs2 := c2.ColdStart()
	if cs2.Total > cs1.Total {
		t.Fatalf("steady clone (%v) dearer than first clone (%v)", cs2.Total, cs1.Total)
	}
	if cs1.Total*10 > full.Total {
		t.Fatalf("first clone %v not 10x below full cold start %v", cs1.Total, full.Total)
	}
}

func TestCloneDisabledByDefault(t *testing.T) {
	pl := newPlatform(t, isolation.ModeGH, 1)
	c, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	if c.ColdStart().ClonedFrom != -1 {
		t.Fatal("clone scale-out ran without being enabled")
	}
	// Modes without a snapshot fall back to the full pipeline even when
	// clone scale-out is on.
	base := clonePlatform(t, isolation.ModeBase)
	bc, err := base.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	if bc.ColdStart().ClonedFrom != -1 {
		t.Fatal("BASE container claims to be a clone")
	}
}

// TestCloneEquivalentRestores is the platform half of the equivalence
// guarantee: a cloned container and the fully-initialized donor serve the
// same request sequence and report identical RestoreStats page counts.
func TestCloneEquivalentRestores(t *testing.T) {
	pl := clonePlatform(t, isolation.ModeGH)
	donor := pl.Containers()[0]
	clone, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	pl.Engine.RunUntil(clone.Ready())

	for i := 0; i < 4; i++ {
		ds, err := pl.Serve(donor, "tenant-a")
		if err != nil {
			t.Fatal(err)
		}
		cs, err := pl.Serve(clone, "tenant-a")
		if err != nil {
			t.Fatal(err)
		}
		if !ds.Restored || !cs.Restored {
			t.Fatalf("request %d: restore skipped (donor %v, clone %v)", i, ds.Restored, cs.Restored)
		}
		dr, cr := ds.Restore, cs.Restore
		if dr.MappedPages != cr.MappedPages || dr.DirtyPages != cr.DirtyPages ||
			dr.RestoredPages != cr.RestoredPages || dr.DroppedPages != cr.DroppedPages ||
			dr.LayoutOps != cr.LayoutOps {
			t.Fatalf("request %d: donor counts %+v, clone counts %+v", i, dr, cr)
		}
	}
}

// TestCloneFleetMemorySubLinear pins the memory story at platform scope:
// scaling from 1 to N containers by cloning shares nearly the whole warm
// image, so frames-in-use grow far slower than linearly.
func TestCloneFleetMemorySubLinear(t *testing.T) {
	pl := clonePlatform(t, isolation.ModeGH)
	oneContainer := pl.Memory().FramesInUse

	for len(pl.Containers()) < 4 {
		if _, err := pl.AddContainer(); err != nil {
			t.Fatal(err)
		}
	}
	atFour := pl.Memory()
	// 4 containers must cost far less than 4x one container's frames. The
	// one-time image export roughly doubles the footprint; clones add ~0.
	if atFour.FramesInUse >= 3*oneContainer {
		t.Fatalf("4 containers use %d frames, 1 used %d; sharing broken", atFour.FramesInUse, oneContainer)
	}
	if atFour.SharedFramePages == 0 {
		t.Fatal("no shared frames reported across cloned containers")
	}
	if atFour.ResidentPages < 4*(oneContainer/2) {
		t.Fatalf("resident pages %d implausibly low for 4 containers", atFour.ResidentPages)
	}

	// Serving dirties pages and diverges frames, but the shared baseline
	// remains: memory still far below 4 independent containers.
	for _, c := range pl.Containers() {
		pl.Engine.RunUntil(c.Ready())
		if _, err := pl.Serve(c, ""); err != nil {
			t.Fatal(err)
		}
	}
	after := pl.Memory()
	if after.FramesInUse >= 4*oneContainer {
		t.Fatalf("after serving, %d frames >= 4x single-container %d", after.FramesInUse, oneContainer)
	}
	if after.SharedFramePages == 0 {
		t.Fatal("all sharing lost after one request per container")
	}
}

// TestFootprintMatchesMemory: the policies' two memory figures equal what
// Memory reports, and the resident count equals a walk over every resident
// page, under both stores — with clones sharing the image's frames, after
// each container has served (so CoW stores have diverged), and after a
// RemoveContainer.
func TestFootprintMatchesMemory(t *testing.T) {
	for _, store := range []core.StoreKind{core.StoreCopy, core.StoreCoW} {
		t.Run(store.String(), func(t *testing.T) {
			pl, err := NewPlatformOn(sim.NewEngine(), kernel.New(kernel.Default()), testProfile(), isolation.ModeGH, 0, 42)
			if err != nil {
				t.Fatal(err)
			}
			pl.CloneScaleOut = true
			pl.Store = store
			if _, err := pl.AddWarmContainer(); err != nil {
				t.Fatal(err)
			}
			for len(pl.Containers()) < 3 {
				if _, err := pl.AddContainer(); err != nil {
					t.Fatal(err)
				}
			}
			check := func(when string) {
				t.Helper()
				pages, bytes := pl.Footprint()
				st := pl.Memory()
				if pages != st.ResidentPages || bytes != st.StateStoreBytes {
					t.Fatalf("%s: Footprint (%d pages, %d bytes) != Memory (%d pages, %d bytes)",
						when, pages, bytes, st.ResidentPages, st.StateStoreBytes)
				}
				walked := 0
				for _, c := range pl.Containers() {
					walked += len(c.inst.Proc.AS.AppendResidentVPNs(nil))
				}
				if pages != walked || pages == 0 {
					t.Fatalf("%s: Footprint counts %d resident pages, the walk %d", when, pages, walked)
				}
				if st.SharedFramePages == 0 {
					t.Fatalf("%s: no shared frames across clones", when)
				}
			}
			check("clones")
			for _, c := range pl.Containers() {
				pl.Engine.RunUntil(c.Ready())
				if _, err := pl.Serve(c, ""); err != nil {
					t.Fatal(err)
				}
			}
			check("served")
			if _, bytes := pl.Footprint(); store == core.StoreCopy && bytes == 0 {
				t.Fatal("copy stores report no state-store memory")
			}
			pl.RemoveContainer(pl.Containers()[0])
			check("removed")
			pl.Teardown()
		})
	}
}

// TestCloneDonorEligibility: the template is taken by the first cold start,
// right after its snapshot, so nothing the donor serves afterwards reaches a
// clone. A served GH-NOP deployment, whose donor never rolls back, still
// clones; so does a served GH one; and either clone starts from the
// instance bookkeeping the donor had before its first request.
func TestCloneDonorEligibility(t *testing.T) {
	for _, mode := range []isolation.Mode{isolation.ModeGHNop, isolation.ModeGH} {
		t.Run(string(mode), func(t *testing.T) {
			pl := clonePlatform(t, mode)
			donor := pl.Containers()[0]
			pristine := donor.Instance().CaptureState()
			if _, err := pl.InvokeOnce("a"); err != nil {
				t.Fatal(err)
			}
			pl.Engine.RunUntil(donor.Ready()) // let any post-request restore finish
			c, err := pl.AddContainer()
			if err != nil {
				t.Fatal(err)
			}
			if c.ColdStart().ClonedFrom != donor.ID {
				t.Fatalf("served %s deployment did not clone from its donor: %+v", mode, c.ColdStart())
			}
			if !reflect.DeepEqual(c.Instance().CaptureState(), pristine) {
				t.Fatal("clone's bookkeeping is the served donor's, not the pristine template's")
			}
			pl.Engine.RunUntil(c.Ready())
			if _, err := pl.Serve(c, "b"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCloneSurvivesDonorRemoval: once the template is captured (first
// clone), keep-alive expiry of the donor container does not invalidate it —
// the manager's snapshot holds its own frame references.
func TestCloneSurvivesDonorRemoval(t *testing.T) {
	pl := clonePlatform(t, isolation.ModeGH)
	donor := pl.Containers()[0]
	if _, err := pl.AddContainer(); err != nil { // captures the template
		t.Fatal(err)
	}
	pl.RemoveContainer(donor)
	c, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	if c.ColdStart().ClonedFrom != donor.ID {
		t.Fatalf("post-removal container not cloned from donor snapshot: %+v", c.ColdStart())
	}
	pl.Engine.RunUntil(c.Ready())
	if _, err := pl.Serve(c, ""); err != nil {
		t.Fatal(err)
	}
}

// TestCloneTemplateOutlivesItsContainer: the template holds the donor's
// snapshot itself, so removing the only container before any clone leaves
// the next start a clone from it, and teardown still gives back every frame
// under both stores — and a platform that never clones captures no template
// at all.
func TestCloneTemplateOutlivesItsContainer(t *testing.T) {
	for _, store := range []core.StoreKind{core.StoreCopy, core.StoreCoW} {
		t.Run(store.String(), func(t *testing.T) {
			kern := kernel.New(kernel.Default())
			pl, err := NewPlatformOn(sim.NewEngine(), kern, testProfile(), isolation.ModeGH, 0, 42)
			if err != nil {
				t.Fatal(err)
			}
			pl.CloneScaleOut = true
			pl.Store = store
			donor, err := pl.AddWarmContainer()
			if err != nil {
				t.Fatal(err)
			}
			pl.RemoveContainer(donor)
			c, err := pl.AddContainer()
			if err != nil {
				t.Fatal(err)
			}
			if cs := c.ColdStart(); cs.ClonedFrom != donor.ID {
				t.Fatalf("start after the donor's removal did not clone from it: %+v", cs)
			}
			pl.Engine.RunUntil(c.Ready())
			if _, err := pl.Serve(c, ""); err != nil {
				t.Fatal(err)
			}
			pl.Teardown()
			if got := kern.Phys.InUse(); got != 0 {
				t.Fatalf("%d frames in use after teardown", got)
			}
		})
	}

	// A platform with CloneScaleOut off must not retain donor state: the
	// template would pin the donor manager's snapshot for the platform's
	// lifetime (keep-alive churn in fleets would never free it).
	off := newPlatform(t, isolation.ModeGH, 1)
	if _, err := off.AddContainer(); err != nil {
		t.Fatal(err)
	}
	if off.template != nil {
		t.Fatal("disabled platform captured a clone template")
	}
}

// TestEvictImageReturnsFrames is the scale-to-zero acceptance pin: after the
// last container is removed and the image evicted, every frame the
// deployment materialized — container address spaces, snapshot stores, and
// the exported image — is back in the kernel's physical memory pool. Both
// StateStore kinds must hold the invariant.
func TestEvictImageReturnsFrames(t *testing.T) {
	for _, store := range []core.StoreKind{core.StoreCopy, core.StoreCoW} {
		t.Run(store.String(), func(t *testing.T) {
			kern := kernel.New(kernel.Default())
			before := kern.Phys.InUse()
			pl, err := NewPlatformOn(sim.NewEngine(), kern, testProfile(), isolation.ModeGH, 0, 42)
			if err != nil {
				t.Fatal(err)
			}
			pl.CloneScaleOut = true
			pl.Store = store
			for i := 0; i < 3; i++ {
				if _, err := pl.AddContainer(); err != nil {
					t.Fatal(err)
				}
			}
			if pl.Containers()[1].ColdStart().ClonedFrom < 0 {
				t.Fatal("scale-out did not clone")
			}
			mid := kern.Phys.InUse()
			if mid <= before {
				t.Fatalf("fleet holds no frames (%d -> %d)", before, mid)
			}
			for len(pl.Containers()) > 0 {
				pl.RemoveContainer(pl.Containers()[0])
			}
			if !pl.EvictImage() {
				t.Fatal("no image to evict despite clone scale-out")
			}
			if got := kern.Phys.InUse(); got != before {
				t.Fatalf("%d frames still in use after scale-to-zero eviction (started at %d)", got, before)
			}
			if pl.EvictImage() {
				t.Fatal("second eviction claims to have released an image")
			}
		})
	}
}

// TestEvictImageSafeWithLiveClones: eviction only drops the image's own
// frame references; containers already cloned from it keep theirs and stay
// serviceable. No pooled container is recaptured: the next scale-up replays
// the full pipeline, and that cold start captures the new template.
func TestEvictImageSafeWithLiveClones(t *testing.T) {
	pl := clonePlatform(t, isolation.ModeGH)
	clone, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	if !pl.EvictImage() {
		t.Fatal("no image to evict")
	}
	pl.Engine.RunUntil(clone.Ready())
	if _, err := pl.Serve(clone, ""); err != nil {
		t.Fatalf("clone broken by eviction: %v", err)
	}

	full, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	if cs := full.ColdStart(); cs.ClonedFrom != -1 || cs.EnvInstantiation == 0 {
		t.Fatalf("start after eviction did not run the full pipeline: %+v", cs)
	}
	recloned, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	if recloned.ColdStart().ClonedFrom != full.ID {
		t.Fatalf("the full start after eviction captured no template: %+v", recloned.ColdStart())
	}
	pl.Engine.RunUntil(recloned.Ready())
	if _, err := pl.Serve(recloned, ""); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveContainerReleasesCloneStore: a removed clone's state-store frame
// references go back to the pool with it — keep-alive churn over clones must
// not leak the image's refcounts upward.
func TestRemoveContainerReleasesCloneStore(t *testing.T) {
	pl := clonePlatform(t, isolation.ModeGH)
	if _, err := pl.AddContainer(); err != nil {
		t.Fatal(err)
	}
	base := pl.Kern.Phys.InUse()
	c, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	if pl.Kern.Phys.InUse() != base {
		// Clones share every frame; an unserved clone must cost zero frames.
		t.Fatalf("unserved clone cost %d frames", pl.Kern.Phys.InUse()-base)
	}
	pl.Engine.RunUntil(c.Ready())
	if _, err := pl.Serve(c, ""); err != nil {
		t.Fatal(err)
	}
	pl.RemoveContainer(c)
	if got := pl.Kern.Phys.InUse(); got != base {
		t.Fatalf("removed clone left %d frames behind", got-base)
	}
}
