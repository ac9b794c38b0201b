package core_test

import (
	"testing"

	"groundhog/internal/benchscenario"
	"groundhog/internal/core"
	"groundhog/internal/kernel"
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
// from shared frames instead of the arena.
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
	_, m, request, err := benchscenario.SteadyStateUffd(kernel.Default(), 256, 64)
	if err != nil {
		t.Fatal(err)
	}
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
