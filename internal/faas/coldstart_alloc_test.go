package faas

import (
	"os"
	"os/exec"
	"runtime"
	"testing"

	"groundhog/internal/catalog"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/vm"
)

// totalAlloc returns the bytes fn allocates on the Go heap, live or not.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestColdStartAllocatesWhatItKeeps: the Fig. 1 pipeline first-touches frames
// that stay live and copies them once into the manager's store, so the bytes
// a cold start allocates are held to twice the bytes it keeps — page
// contents (the frames that hold bytes plus the store's lent pages) and the
// per-resident-page bookkeeping around them. A buffer grown an element at a
// time by append allocates about five of itself to keep one, which is over
// the budget for the frame table on Node; and a store that took a page per
// resident page rather than per page with content is far over it: 598 of
// Node's 156,766 resident pages hold bytes, so that is 640 MB of pages to
// keep 2.4. Both runtimes sit 30 % or more under the budget, so no
// size-class rounding decides the test.
func TestColdStartAllocatesWhatItKeeps(t *testing.T) {
	// A resident page costs, whether or not it holds bytes: a frame slot (32)
	// and a page-table entry (16) in the kernel; a VPN and a page pointer in
	// the snapshot's index (8 + 8); a resident-list and a pagemap entry in the
	// manager's scratch (8 + 16).
	const bookkeeping = 32 + 16 + 8 + 8 + 8 + 16
	for _, name := range []string{"pyflate (p)", "get-time (n)"} {
		t.Run(name, func(t *testing.T) {
			e, err := catalog.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			var pl *Platform
			allocated := totalAlloc(func() {
				if pl, err = NewPlatform(kernel.Default(), e.Prof, isolation.ModeGH, 1, 1); err != nil {
					t.Fatal(err)
				}
			})
			c := pl.Containers()[0]
			as := c.Instance().Proc.AS
			content := contentPages(as)*mem.PageSize + pl.Memory().StateStoreBytes
			budget := uint64(2 * (content + as.ResidentPages()*bookkeeping))
			t.Logf("allocated %d KiB; keeps %d KiB of page contents and %d resident pages; budget %d KiB",
				allocated>>10, content>>10, as.ResidentPages(), budget>>10)
			if allocated > budget {
				t.Errorf("cold start allocated %d KiB, more than twice what it keeps (%d KiB)", allocated>>10, budget>>10)
			}
		})
	}
}

// contentPages counts as's resident pages that hold bytes.
func contentPages(as *vm.AddressSpace) int {
	var buf [mem.PageSize]byte
	n := 0
	for _, vpn := range as.ResidentVPNs() {
		if zero, ok := as.PeekPageInto(vpn, buf[:]); ok && !zero {
			n++
		}
	}
	return n
}

// mallocs returns the number of heap objects fn allocates.
func mallocs(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// cloneAndRestore adds a clone of pl's exported image and serves it one
// request, whose restore runs before it returns: a clone cold start plus its
// first restore.
func cloneAndRestore(t testing.TB, pl *Platform) *Container {
	c, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	pl.Engine.RunUntil(c.Ready())
	if _, err := pl.Serve(c, ""); err != nil {
		t.Fatal(err)
	}
	pl.Engine.RunUntil(c.Ready())
	return c
}

// clonePlatformExported is clonePlatform with its template's image exported,
// so no clone pays the one-time export.
func clonePlatformExported(t testing.TB) *Platform {
	pl := clonePlatform(t, isolation.ModeGH)
	if _, _, err := pl.EnsureExportedImage(nil); err != nil {
		t.Fatal(err)
	}
	return pl
}

// maxCloneAfterTeardownAllocs pins what a clone cold start plus its first
// restore allocates once a torn-down clone has passed on its address space's
// books and its manager's restore scratch: the objects themselves (the
// container and its strategy, the instance and its random source, the
// process and its two threads, the address space, the manager with its
// tracer, procfs view and snapshot record, a meter) and the request's churn
// region name. The first clone of a process allocates 88.
const maxCloneAfterTeardownAllocs = 15

// TestCloneColdStartAfterTeardownAllocatesLess: a container torn down passes
// its address space's region list, chunk list and epoch logs and its
// manager's restore scratch to the next container started, so a clone cold
// start plus its first restore, after a teardown, allocates fewer objects
// than the process's first one did, and at most maxCloneAfterTeardownAllocs.
// The spare lists are process-wide and any earlier test may have filled them,
// so the test runs again, alone, in a new process of the test binary, where
// the first clone starts from empty lists.
func TestCloneColdStartAfterTeardownAllocatesLess(t *testing.T) {
	const alone = "GROUNDHOG_FAAS_ALLOC_ALONE"
	if os.Getenv(alone) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), alone+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		t.Logf("%s", out)
		return
	}
	pl := clonePlatformExported(t)
	var c *Container
	first := mallocs(func() { c = cloneAndRestore(t, pl) })
	for i := 0; i < 3; i++ {
		pl.RemoveContainer(c)
		after := mallocs(func() { c = cloneAndRestore(t, pl) })
		t.Logf("clone cold start plus first restore: %d allocs first, %d after teardown %d", first, after, i+1)
		if after >= first || after > maxCloneAfterTeardownAllocs {
			t.Errorf("after teardown %d: %d allocs, want fewer than the first clone's %d and at most %d",
				i+1, after, first, maxCloneAfterTeardownAllocs)
		}
	}
}

// BenchmarkCloneColdStartAfterTeardown: a clone cold start, its first
// restore and its container's teardown, each clone starting on what the
// previous one's teardown passed on.
func BenchmarkCloneColdStartAfterTeardown(b *testing.B) {
	pl := clonePlatformExported(b)
	pl.RemoveContainer(cloneAndRestore(b, pl))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.RemoveContainer(cloneAndRestore(b, pl))
	}
}
