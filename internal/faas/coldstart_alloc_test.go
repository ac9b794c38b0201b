package faas

import (
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
