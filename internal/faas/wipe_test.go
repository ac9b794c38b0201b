package faas

import (
	"encoding/binary"
	"testing"

	"groundhog/internal/isolation"
	"groundhog/internal/mem"
	"groundhog/internal/vm"
)

// wipeMarker is the word tenant A writes; no page tenant B can reach may
// hold it.
const wipeMarker = 0xA11CE5A11CE5A11C

// markWritablePages fills every resident page of c's writable regions with
// wipeMarker, as a request that dirties them all would.
func markWritablePages(c *Container) {
	as := c.inst.Proc.AS
	for _, v := range as.VMAs() {
		if v.Prot&vm.ProtWrite == 0 {
			continue
		}
		for vpn := v.Start.PageNum(); vpn < v.End.PageNum(); vpn++ {
			if _, ok := as.PTEAt(vpn); !ok {
				continue
			}
			for off := 0; off < mem.PageSize; off += mem.WordSize {
				as.WriteWord(vm.PageAddr(vpn)+vm.Addr(off), wipeMarker)
			}
		}
	}
}

// serveAll serves one request on each of pl's containers.
func serveAll(t *testing.T, pl *Platform, caller string) {
	t.Helper()
	for _, c := range pl.Containers() {
		pl.Engine.RunUntil(c.Ready())
		if _, err := pl.Serve(c, caller); err != nil {
			t.Fatal(err)
		}
	}
}

// pageContents reads every resident page of as (nil for an all-zero one).
func pageContents(as *vm.AddressSpace) map[uint64][]byte {
	pages := map[uint64][]byte{}
	for _, vpn := range as.ResidentVPNs() {
		pages[vpn] = as.PeekPage(vpn)
	}
	return pages
}

// TestWipeHoldsAcrossTenants is the wipe guarantee across the pools a
// teardown feeds: a page buffer (frames and the copy store's lent pages, both
// carved from slabs that go to the spare list) and a page-table chunk (to the
// process-wide chunk pool). Tenant A's GH platform marks every page its
// containers can write, snapshots the marked state, clones from it, marks
// again and is torn down. Tenant B's platform is built next in the same
// process on a new kernel, so its frames, lent pages and chunks come from
// what A gave back. B runs a full cold start, serves, gives its donor
// container up (the clone template keeps the snapshot), clones from it and
// serves on the clone. After every step:
//   - every page table of B's processes holds its invariants, among them
//     that a slot with no page holds no stale entry;
//   - no resident page of B's processes holds A's marker;
//   - every manager's Verify passes: its store equals the process page for
//     page, so no store page holds the marker either;
//   - the clone, fresh, holds exactly what the donor held after its cold
//     start, so its image was exported from the store intact.
func TestWipeHoldsAcrossTenants(t *testing.T) {
	a := clonePlatform(t, isolation.ModeGH)
	serveAll(t, a, "tenant-a")
	markWritablePages(a.Containers()[0])
	if _, err := a.Containers()[0].strat.Manager().TakeSnapshot(); err != nil {
		t.Fatal(err)
	}
	if a.Kern.Phys.Lent() == 0 {
		t.Fatal("tenant A's snapshot lent no pages; the test needs its store in lent pages")
	}
	if _, err := a.AddContainer(); err != nil {
		t.Fatal(err)
	}
	serveAll(t, a, "tenant-a")
	for _, c := range a.Containers() {
		markWritablePages(c)
	}
	a.Teardown()
	if a.Kern.Phys.InUse() != 0 || a.Kern.Phys.Lent() != 0 {
		t.Fatalf("tenant A torn down with %d frames in use, %d pages lent", a.Kern.Phys.InUse(), a.Kern.Phys.Lent())
	}

	check := func(step string, pl *Platform) {
		t.Helper()
		for _, c := range pl.Containers() {
			as := c.inst.Proc.AS
			if err := as.CheckInvariants(); err != nil {
				t.Fatalf("%s: container %d: %v", step, c.ID, err)
			}
			for vpn, page := range pageContents(as) {
				for off := 0; off+mem.WordSize <= len(page); off += mem.WordSize {
					if binary.LittleEndian.Uint64(page[off:]) == wipeMarker {
						t.Fatalf("%s: container %d: page %#x shows tenant A's marker at offset %d", step, c.ID, vpn, off)
					}
				}
			}
			if err := c.strat.Manager().Verify(); err != nil {
				t.Fatalf("%s: container %d: %v", step, c.ID, err)
			}
		}
	}
	b := clonePlatform(t, isolation.ModeGH)
	check("B's full cold start", b)
	donor := b.Containers()[0]
	clean := pageContents(donor.inst.Proc.AS)
	for i := 0; i < 3; i++ {
		serveAll(t, b, "tenant-b")
		check("B serving its donor", b)
	}
	b.RemoveContainer(donor)
	clone, err := b.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	if clone.ColdStart().ClonedFrom != donor.ID {
		t.Fatalf("B's second container cloned from %d, want the donor %d", clone.ColdStart().ClonedFrom, donor.ID)
	}
	check("B's clone", b)
	got := pageContents(clone.inst.Proc.AS)
	if len(got) != len(clean) {
		t.Fatalf("B's clone has %d resident pages, its donor had %d after its cold start", len(got), len(clean))
	}
	for vpn, page := range clean {
		if !pagesEqual(got[vpn], page) {
			t.Fatalf("B's clone page %#x differs from its donor's clean state", vpn)
		}
	}
	for i := 0; i < 3; i++ {
		serveAll(t, b, "tenant-b")
		check("B serving its clone", b)
	}
	b.Teardown()
	if b.Kern.Phys.InUse() != 0 || b.Kern.Phys.Lent() != 0 {
		t.Fatalf("tenant B torn down with %d frames in use, %d pages lent", b.Kern.Phys.InUse(), b.Kern.Phys.Lent())
	}
}

// pagesEqual compares two PeekPage results, nil being the all-zero page.
func pagesEqual(x, y []byte) bool {
	for i := 0; i < mem.PageSize; i++ {
		var bx, by byte
		if x != nil {
			bx = x[i]
		}
		if y != nil {
			by = y[i]
		}
		if bx != by {
			return false
		}
	}
	return true
}
