package faas

import (
	"testing"

	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/sim"
)

// TestAddWarmContainerIsReadyNow: the explicit warm-floor path matches
// constructor semantics — ready immediately, pipeline cost still recorded.
func TestAddWarmContainerIsReadyNow(t *testing.T) {
	pl, err := NewPlatformOn(sim.NewEngine(), kernel.New(kernel.Default()), testProfile(), isolation.ModeGH, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pl.AddWarmContainer()
	if err != nil {
		t.Fatal(err)
	}
	if c.Ready() != pl.Engine.Now() {
		t.Fatalf("warm container ready at %v, want now (%v)", c.Ready(), pl.Engine.Now())
	}
	if c.ColdStart().Total <= 0 {
		t.Fatal("warm container recorded no pipeline cost")
	}
}

// TestColdStartSummarySplitsPaths: the cumulative summary splits full vs.
// clone scale-ups, sums their costs, and survives container removal.
func TestColdStartSummarySplitsPaths(t *testing.T) {
	pl := clonePlatform(t, isolation.ModeGH)
	clone, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	cs := pl.ColdStarts()
	if cs.Full != 1 || cs.Clone != 1 {
		t.Fatalf("split %d/%d, want 1 full + 1 clone", cs.Full, cs.Clone)
	}
	if full := pl.Containers()[0].ColdStart().Total; cs.FullCost != full || cs.CloneCost != clone.ColdStart().Total {
		t.Fatalf("cost split %v+%v, want the containers' own %v+%v",
			cs.FullCost, cs.CloneCost, full, clone.ColdStart().Total)
	}
	if cs.CloneCost <= 0 || cs.CloneCost >= cs.FullCost {
		t.Fatalf("clone cost %v not below full cost %v", cs.CloneCost, cs.FullCost)
	}
	pl.RemoveContainer(clone)
	if got := pl.ColdStarts(); got != cs {
		t.Fatalf("summary changed on removal: %+v -> %+v", cs, got)
	}
}

// TestCloneSourceReadyIsReadOnly: CloneSourceReady is a pure query. It is
// true exactly when the deployment holds a clone template, and asking never
// captures one: after eviction only the next full cold start does.
func TestCloneSourceReadyIsReadOnly(t *testing.T) {
	pl := clonePlatform(t, isolation.ModeGH)
	if !pl.CloneSourceReady() {
		t.Fatal("the first cold start captured no template")
	}
	tmpl, cs := pl.template, pl.ColdStarts()
	for i := 0; i < 3; i++ {
		if !pl.CloneSourceReady() {
			t.Fatal("readiness changed between queries")
		}
	}
	if pl.template != tmpl || pl.ColdStarts() != cs {
		t.Fatal("querying readiness changed the template or the cold-start record")
	}

	pl.EvictImage()
	for i := 0; i < 3; i++ {
		if pl.CloneSourceReady() || pl.template != nil {
			t.Fatal("ready after eviction: the query captured a template")
		}
	}
	c, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	if c.ColdStart().ClonedFrom >= 0 || !pl.CloneSourceReady() {
		t.Fatalf("start after eviction: %+v, ready %v; want a full start that captures", c.ColdStart(), pl.CloneSourceReady())
	}
}

// TestEnsureCloneTemplateSurvivesScaleToZero: the clone template outlives
// every container, so a deployment scaled to zero is still clone-ready and
// its revival clones instead of replaying the pipeline.
func TestEnsureCloneTemplateSurvivesScaleToZero(t *testing.T) {
	pl := clonePlatform(t, isolation.ModeGH)
	pl.RemoveContainer(pl.Containers()[0])
	if len(pl.Containers()) != 0 {
		t.Fatalf("%d containers after removing the only one", len(pl.Containers()))
	}
	if !pl.CloneSourceReady() {
		t.Fatal("template did not survive scale to zero")
	}
	c, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	if c.ColdStart().ClonedFrom < 0 {
		t.Fatal("revival from zero replayed the pipeline")
	}
}

// TestEnsureCloneTemplateDisabled: no template is captured with clone
// scale-out off, nor under a mode that records no snapshot.
func TestEnsureCloneTemplateDisabled(t *testing.T) {
	off := newPlatform(t, isolation.ModeGH, 1)
	if off.CloneSourceReady() || off.template != nil {
		t.Fatal("a template with clone scale-out disabled")
	}
	if clonePlatform(t, isolation.ModeBase).CloneSourceReady() {
		t.Fatal("a template on a mode that records no snapshot")
	}
}
