package core_test

import (
	"runtime"
	"testing"

	"groundhog/internal/benchscenario"
	"groundhog/internal/core"
	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

// steadyStateManager wraps the shared scenario (internal/benchscenario) used
// by both these guards and the ghbench bench-restore suite, so the allocation
// guard and BENCH_restore.json run the same workload.
func steadyStateManager(t *testing.T, heapPages, dirtyPages int, opts core.Options) (*core.Manager, func()) {
	t.Helper()
	_, m, request, err := benchscenario.SteadyState(kernel.Default(), heapPages, dirtyPages, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, request
}

// TestRestoreSteadyStateZeroAllocs pins the steady-state restore path at
// exactly zero heap allocations: after the first restore has sized the
// manager's scratch buffers, rolling back a request that dirtied pages (but
// did not change the memory layout) must not allocate at all — under the
// default copy store and under the CoW store (§5.5), whose restores copy
// from shared frames instead of lent pages.
func TestRestoreSteadyStateZeroAllocs(t *testing.T) {
	for _, store := range []core.StoreKind{core.StoreCopy, core.StoreCoW} {
		opts := core.DefaultOptions()
		opts.Store = store
		m, request := steadyStateManager(t, 256, 64, opts)
		allocs := testing.AllocsPerRun(50, func() {
			request()
			if _, err := m.Restore(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state restore (%v store) allocates: %.1f allocs/op, want 0", store, allocs)
		}
	}
}

// TestRestoreUffdSteadyStateZeroAllocs pins the UFFD tracker's restore path
// at the same zero-allocation bar as the soft-dirty default: the dirty set
// comes from the address space's incremental dirty log and the resident set
// from the append-style accessor, both read into the manager's scratch
// buffers.
func TestRestoreUffdSteadyStateZeroAllocs(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Tracker = core.TrackUffd
	m, request := steadyStateManager(t, 256, 64, opts)
	allocs := testing.AllocsPerRun(50, func() {
		request()
		if _, err := m.Restore(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state UFFD restore allocates: %.1f allocs/op, want 0", allocs)
	}
}

// TestRestoreSteadyStateZeroAllocsLargeSpace repeats the guard at a Node.js-
// like scale (large mapped space, small write set) — the regime where the old
// map-based path allocated hash tables proportional to the address space.
func TestRestoreSteadyStateZeroAllocsLargeSpace(t *testing.T) {
	if testing.Short() {
		t.Skip("large address space in -short mode")
	}
	m, request := steadyStateManager(t, 4096, 16, core.DefaultOptions())
	allocs := testing.AllocsPerRun(10, func() {
		request()
		if _, err := m.Restore(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state restore allocates: %.1f allocs/op, want 0", allocs)
	}
}

// TestRestoreLeftoverMappingZeroAllocs is the guards' twin for a request that
// leaves a scratch mapping behind — what a Python or Node request's allocator
// churn does: it maps a region, writes it and returns, so the restore diffs
// the layouts and injects a munmap (vm.carve on the region list, page-table
// chunk dropped and respared, the drop logged). Once the scratch buffers have
// their sizes that allocates nothing either.
func TestRestoreLeftoverMappingZeroAllocs(t *testing.T) { leftoverMappingZeroAllocs(t, false) }

// TestRestoreMovedMappingZeroAllocs is the same request ending in
// MoveMapping's mremap move, logged like any other epoch event: the restore
// unmaps the moved mapping and its box, and still allocates nothing. The
// request's own mremap allocates (the failed in-place attempt formats an
// error, and the page table grows a chunk at the new address), so the mallocs
// are counted across Restore alone.
func TestRestoreMovedMappingZeroAllocs(t *testing.T) { leftoverMappingZeroAllocs(t, true) }

func leftoverMappingZeroAllocs(t *testing.T, move bool) {
	p, m, request, err := benchscenario.SteadyState(kernel.Default(), 256, 64, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var layoutOps int
	cycle := func() (mallocs uint64) {
		request()
		scratch, err := p.AS.Mmap(4*mem.PageSize, vm.ProtRW, vm.KindAnon, "")
		if err != nil {
			t.Fatal(err)
		}
		p.AS.WriteWord(scratch+mem.PageSize, 1)
		if move {
			core.MoveMapping(t, p.AS)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := m.Restore()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		layoutOps = st.LayoutOps
		return after.Mallocs - before.Mallocs
	}
	cycle()
	var mallocs uint64
	for i := 0; i < 50; i++ {
		mallocs += cycle()
	}
	if mallocs != 0 {
		t.Fatalf("restore of a leftover mapping (moved: %v) allocated %d times in 50 restores, want 0", move, mallocs)
	}
	if layoutOps == 0 {
		t.Fatal("the restore reversed no layout change")
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestFastAndSlowRestoreAgree runs one request sequence down Restore and the
// reference restore (core.ExactRestore, the page-table walk) and requires the
// same answer from each. Twin managers serve the steady-state scenario, each
// request also writing a stack page the snapshot never saw (so the madvise set
// is not empty), moving a mapping with mremap on every other cycle, and
// ending in a ScratchCycle, which leaves a dropped page in the lost log. Every
// restore must report the same RestoreStats — page counts, Total and each
// phase — on both twins, and both must verify clean, under both trackers and
// both stores. Under UFFD the scan phase is also held to its price: per dirty
// and per resident page.
func TestFastAndSlowRestoreAgree(t *testing.T) {
	cost := kernel.Default()
	for _, tracker := range []core.TrackerKind{core.TrackSoftDirty, core.TrackUffd} {
		for _, store := range []core.StoreKind{core.StoreCopy, core.StoreCoW} {
			opts := core.Options{Tracker: tracker, Coalesce: true, Store: store}
			type twin struct {
				p       *kernel.Process
				m       *core.Manager
				request func()
				restore func(*core.Manager) (core.RestoreStats, error)
			}
			fast, slow := twin{restore: (*core.Manager).Restore}, twin{restore: core.ExactRestore}
			for _, tw := range []*twin{&fast, &slow} {
				var err error
				if tw.p, tw.m, tw.request, err = benchscenario.SteadyState(cost, 256, 64, opts); err != nil {
					t.Fatal(err)
				}
			}
			for cycle := 0; cycle < 4; cycle++ {
				var stats [2]core.RestoreStats
				var resident int
				for i, tw := range []*twin{&fast, &slow} {
					as := tw.p.AS
					tw.request()
					as.WriteWord(vm.StackTop-vm.Addr((64+cycle)*mem.PageSize), 7)
					if cycle%2 == 1 {
						core.MoveMapping(t, as)
					}
					core.ScratchCycle(t, as)
					resident = as.ResidentPages()
					var err error
					if stats[i], err = tw.restore(tw.m); err != nil {
						t.Fatal(err)
					}
					if err := tw.m.Verify(); err != nil {
						t.Fatalf("%v/%v cycle %d twin %d: %v", tracker, store, cycle, i, err)
					}
				}
				if stats[0] != stats[1] {
					t.Fatalf("%v/%v cycle %d: Restore reports\n%+v\nthe reference reports\n%+v", tracker, store, cycle, stats[0], stats[1])
				}
				if tracker == core.TrackUffd {
					want := cost.PagemapPerPage*sim.Duration(stats[0].DirtyPages) + cost.ResidentScanPerPage*sim.Duration(resident)
					if got := stats[0].PhaseDurations.Of(core.PhaseScanPages); got != want {
						t.Fatalf("%v/%v cycle %d: UFFD scan charged %v, want %v", tracker, store, cycle, got, want)
					}
				}
				if stats[0].RestoredPages != 64 || stats[0].DroppedPages != 1 {
					t.Fatalf("%v/%v cycle %d: restored %d, dropped %d pages; the request dirties 64 and faults in 1",
						tracker, store, cycle, stats[0].RestoredPages, stats[0].DroppedPages)
				}
			}
		}
	}
}
