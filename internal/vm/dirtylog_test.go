package vm

import (
	"slices"
	"testing"

	"groundhog/internal/mem"
)

// dirtyLogSpace builds a UFFD-tracked space with one RW region and an armed
// dirty log (ClearSoftDirty has run, as it does when a snapshot is taken).
func dirtyLogSpace(t *testing.T, pages int) (*AddressSpace, uint64) {
	t.Helper()
	as := New(mem.New(), Costs{})
	if err := as.MmapFixed(0x100000, pages*mem.PageSize, ProtRW, KindAnon, ""); err != nil {
		t.Fatal(err)
	}
	as.SetUffdTracking(true)
	as.ClearSoftDirty()
	return as, Addr(0x100000).PageNum()
}

// mapWalkSoftDirty is the reference implementation the dirty log replaces:
// an exact walk of the page table.
func mapWalkSoftDirty(as *AddressSpace) []uint64 {
	var vpns []uint64
	for _, vpn := range as.pages.appendVPNs(nil) {
		if pte, ok := as.pages.get(vpn); ok && pte.SoftDirty {
			vpns = append(vpns, vpn)
		}
	}
	slices.Sort(vpns)
	return vpns
}

func TestAppendSoftDirtyVPNsDirtyLog(t *testing.T) {
	tests := []struct {
		name string
		run  func(as *AddressSpace, base uint64)
		want []uint64 // page offsets from base
	}{
		{
			name: "empty log",
			run:  func(as *AddressSpace, base uint64) {},
			want: nil,
		},
		{
			name: "single run",
			run: func(as *AddressSpace, base uint64) {
				for _, off := range []uint64{3, 4, 5, 6} {
					as.DirtyPage(base+off, 0xD)
				}
			},
			want: []uint64{3, 4, 5, 6},
		},
		{
			name: "out-of-order writes sort lazily",
			run: func(as *AddressSpace, base uint64) {
				for _, off := range []uint64{6, 1, 4} {
					as.DirtyPage(base+off, 0xD)
				}
			},
			want: []uint64{1, 4, 6},
		},
		{
			name: "rewrites do not duplicate",
			run: func(as *AddressSpace, base uint64) {
				as.DirtyPage(base+2, 0xD)
				as.DirtyPage(base+2, 0xE)
				as.WriteWord(PageAddr(base+2)+64, 0xF)
			},
			want: []uint64{2},
		},
		{
			name: "wraparound after re-arm",
			run: func(as *AddressSpace, base uint64) {
				as.DirtyPage(base+1, 0xD)
				as.DirtyPage(base+2, 0xD)
				as.ClearSoftDirty() // re-arm: the previous epoch's entries are gone
				as.DirtyPage(base+5, 0xD)
			},
			want: []uint64{5},
		},
		{
			name: "dropped page skipped",
			run: func(as *AddressSpace, base uint64) {
				as.DirtyPage(base+2, 0xD)
				as.DropPage(base + 2)
			},
			want: nil,
		},
		{
			name: "drop then re-dirty dedups",
			run: func(as *AddressSpace, base uint64) {
				as.DirtyPage(base+2, 0xD)
				as.DropPage(base + 2)
				as.DirtyPage(base+2, 0xE) // logged a second time
			},
			want: []uint64{2},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			as, base := dirtyLogSpace(t, 8)
			tc.run(as, base)

			got := as.AppendSoftDirtyVPNs(nil)
			want := make([]uint64, 0, len(tc.want))
			for _, off := range tc.want {
				want = append(want, base+off)
			}
			if !slices.Equal(got, want) {
				t.Errorf("AppendSoftDirtyVPNs = %v, want %v", got, want)
			}
			if ref := mapWalkSoftDirty(as); !slices.Equal(got, ref) {
				t.Errorf("log result %v diverges from page-table walk %v", got, ref)
			}
		})
	}
}

// TestAppendSoftDirtyVPNsReusesBuffer pins the accessor's zero-allocation
// contract: with a sufficiently sized destination it appends in place.
func TestAppendSoftDirtyVPNsReusesBuffer(t *testing.T) {
	as, base := dirtyLogSpace(t, 8)
	for off := uint64(0); off < 4; off++ {
		as.DirtyPage(base+off, 0xD)
	}
	buf := as.AppendSoftDirtyVPNs(nil)
	if len(buf) != 4 {
		t.Fatalf("dirty set = %d pages, want 4", len(buf))
	}
	again := as.AppendSoftDirtyVPNs(buf[:0])
	if &again[0] != &buf[0] {
		t.Fatal("AppendSoftDirtyVPNs reallocated despite sufficient capacity")
	}
}

// TestAppendSoftDirtyVPNsFallsBackWithoutUffd checks the page-table walk
// answers before the first ClearSoftDirty (here under soft-dirty tracking),
// while the logs record nothing: a runtime's warm-up does not fill them.
func TestAppendSoftDirtyVPNsFallsBackWithoutUffd(t *testing.T) {
	as := New(mem.New(), Costs{})
	if err := as.MmapFixed(0x100000, 8*mem.PageSize, ProtRW, KindAnon, ""); err != nil {
		t.Fatal(err)
	}
	base := Addr(0x100000).PageNum()
	as.DirtyPage(base+3, 0xD)
	as.DirtyPage(base+1, 0xD)
	got := as.AppendSoftDirtyVPNs(nil)
	if want := []uint64{base + 1, base + 3}; !slices.Equal(got, want) {
		t.Fatalf("fallback walk = %v, want %v", got, want)
	}
	if n := len(as.dirty.vpns) + len(as.fresh.vpns) + len(as.lost.vpns); n != 0 {
		t.Fatalf("the logs recorded %d pages before any epoch started", n)
	}
}

// TestDirtyLogSurvivesMremapMove: relocating PTEs (mremap's move path) is an
// epoch event like a fault or a drop, logged as Linux reports it. Every page
// that left its number is lost, every page that arrived at a new one is fresh
// and, soft-dirty as the kernel marks a moved PTE, dirty — each log checked
// against a walk of the page table before and after the move.
func TestDirtyLogSurvivesMremapMove(t *testing.T) {
	as, base := dirtyLogSpace(t, 3)
	// A differently-named neighbor blocks in-place growth without merging.
	if err := as.MmapFixed(0x100000+3*mem.PageSize, mem.PageSize, ProtRW, KindAnon, "blocker"); err != nil {
		t.Fatal(err)
	}
	as.DirtyPage(base, 0xD) // dirty before the move
	as.TouchPage(base + 1)  // clean
	as.TouchPage(base + 2)
	as.DropPage(base + 2) // not resident: nothing of it moves
	resident := as.ResidentVPNs()
	if want := []uint64{base, base + 1}; !slices.Equal(resident, want) {
		t.Fatalf("resident before the move: %x, want %x", resident, want)
	}
	dst, err := as.Mremap(0x100000, 3*mem.PageSize, 4*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if dst == 0x100000 {
		t.Fatal("mremap did not move despite the blocking neighbor")
	}
	moved := []uint64{dst.PageNum(), dst.PageNum() + 1}
	if got := as.ResidentVPNs(); !slices.Equal(got, moved) {
		t.Fatalf("page table after the move: %x, want %x", got, moved)
	}
	if got, walk := as.AppendSoftDirtyVPNs(nil), mapWalkSoftDirty(as); !slices.Equal(got, moved) || !slices.Equal(walk, moved) {
		t.Fatalf("dirty log %x, page-table walk %x, want both the moved pages %x", got, walk, moved)
	}
	if got := as.AppendFreshVPNs(nil); !slices.Equal(got, moved) {
		t.Fatalf("fresh log %x, want the moved pages %x", got, moved)
	}
	if got, want := as.AppendLostVPNs(nil), []uint64{base, base + 1, base + 2}; !slices.Equal(got, want) {
		t.Fatalf("lost log %x, want the pages moved away and the one dropped before %x", got, want)
	}
	for _, vpn := range moved {
		if pte, _ := as.PTEAt(vpn); !pte.SoftDirty {
			t.Fatalf("moved page %#x is not soft-dirty", vpn)
		}
	}
	as.ClearSoftDirty()
	if d, f, l := as.AppendSoftDirtyVPNs(nil), as.AppendFreshVPNs(nil), as.AppendLostVPNs(nil); len(d)+len(f)+len(l) != 0 || len(mapWalkSoftDirty(as)) != 0 {
		t.Fatalf("after the clear: dirty %x, fresh %x, lost %x, soft-dirty bits %x", d, f, l, mapWalkSoftDirty(as))
	}
}

// TestTrackerFixedOnceAnEpochStarts: the tracker may be chosen (and chosen
// again) until the first ClearSoftDirty; switching it afterwards panics.
func TestTrackerFixedOnceAnEpochStarts(t *testing.T) {
	as := New(mem.New(), Costs{})
	as.SetUffdTracking(true)
	as.SetUffdTracking(false)
	as.ClearSoftDirty()
	as.SetUffdTracking(false) // not a switch
	defer func() {
		if recover() == nil {
			t.Fatal("SetUffdTracking switched the tracker after the first ClearSoftDirty")
		}
	}()
	as.SetUffdTracking(true)
}

// TestAppendResidentVPNsSortedAndReuses covers the resident-set accessor:
// sorted output, equal to ResidentVPNs, appended without reallocating.
func TestAppendResidentVPNsSortedAndReuses(t *testing.T) {
	as, base := dirtyLogSpace(t, 8)
	for _, off := range []uint64{7, 0, 3} {
		as.TouchPage(base + off)
	}
	buf := as.AppendResidentVPNs(nil)
	if want := []uint64{base, base + 3, base + 7}; !slices.Equal(buf, want) {
		t.Fatalf("AppendResidentVPNs = %v, want %v", buf, want)
	}
	if ref := as.ResidentVPNs(); !slices.Equal(buf, ref) {
		t.Fatalf("append accessor %v diverges from ResidentVPNs %v", buf, ref)
	}
	again := as.AppendResidentVPNs(buf[:0])
	if &again[0] != &buf[0] {
		t.Fatal("AppendResidentVPNs reallocated despite sufficient capacity")
	}
}
