package core_test

import (
	"testing"

	"groundhog/internal/benchscenario"
	"groundhog/internal/core"
	"groundhog/internal/kernel"
)

// TestTrackerEquivalentPageCounts pins the functional equivalence of the two
// write trackers on the shared bench scenario: the soft-dirty pagemap scan
// and the UFFD dirty log must see exactly the same dirty and resident sets,
// so every RestoreStats page counter agrees cycle after cycle. (Only the
// virtual cost differs — that is the §4.3 ablation.)
func TestTrackerEquivalentPageCounts(t *testing.T) {
	type scenario struct {
		m       *core.Manager
		request func()
	}
	build := func(tracker core.TrackerKind) scenario {
		opts := core.DefaultOptions()
		opts.Tracker = tracker
		_, m, request, err := benchscenario.SteadyState(kernel.Default(), 256, 64, opts)
		if err != nil {
			t.Fatal(err)
		}
		return scenario{m, request}
	}
	sd, uffd := build(core.TrackSoftDirty), build(core.TrackUffd)

	// A re-snapshot of the unchanged process records the pages the first did.
	snapPages := func(m *core.Manager) int {
		st, err := m.TakeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return st.Pages
	}
	if a, b := snapPages(sd.m), snapPages(uffd.m); a != b {
		t.Fatalf("snapshot pages differ: soft-dirty %d, uffd %d", a, b)
	}
	for cycle := 0; cycle < 5; cycle++ {
		sd.request()
		uffd.request()
		a, err := sd.m.Restore()
		if err != nil {
			t.Fatal(err)
		}
		b, err := uffd.m.Restore()
		if err != nil {
			t.Fatal(err)
		}
		if a.MappedPages != b.MappedPages || a.DirtyPages != b.DirtyPages ||
			a.RestoredPages != b.RestoredPages || a.DroppedPages != b.DroppedPages ||
			a.LayoutOps != b.LayoutOps {
			t.Fatalf("cycle %d: page counts diverge:\nsoft-dirty %+v\nuffd       %+v", cycle, a, b)
		}
		if a.DirtyPages == 0 {
			t.Fatalf("cycle %d: scenario dirtied no pages", cycle)
		}
	}
}
