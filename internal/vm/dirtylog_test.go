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

// TestAppendSoftDirtyVPNsFallsBackWithoutUffd checks the exact page-table
// walk is used when the log is not armed (soft-dirty tracking).
func TestAppendSoftDirtyVPNsFallsBackWithoutUffd(t *testing.T) {
	as := New(mem.New(), Costs{})
	if err := as.MmapFixed(0x100000, 8*mem.PageSize, ProtRW, KindAnon, ""); err != nil {
		t.Fatal(err)
	}
	base := Addr(0x100000).PageNum()
	as.ClearSoftDirty()
	as.DirtyPage(base+3, 0xD)
	as.DirtyPage(base+1, 0xD)
	got := as.AppendSoftDirtyVPNs(nil)
	if want := []uint64{base + 1, base + 3}; !slices.Equal(got, want) {
		t.Fatalf("fallback walk = %v, want %v", got, want)
	}
}

// TestDirtyLogSurvivesMremapMove: relocating PTEs (mremap's move path)
// carries soft-dirty bits to page numbers the log never saw; the log must
// disarm so reads fall back to the exact walk — and the fresh and lost logs
// with it: the move makes pages resident, and takes pages out of the table,
// without a fault or a drop.
func TestDirtyLogSurvivesMremapMove(t *testing.T) {
	as, base := dirtyLogSpace(t, 2)
	// A differently-named neighbor blocks in-place growth without merging.
	if err := as.MmapFixed(0x100000+2*mem.PageSize, mem.PageSize, ProtRW, KindAnon, "blocker"); err != nil {
		t.Fatal(err)
	}
	as.DirtyPage(base, 0xD)
	dst, err := as.Mremap(0x100000, 2*mem.PageSize, 4*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if dst == 0x100000 {
		t.Fatal("mremap did not move despite the blocking neighbor")
	}
	got := as.AppendSoftDirtyVPNs(nil)
	if want := []uint64{dst.PageNum()}; !slices.Equal(got, want) {
		t.Fatalf("dirty set after mremap move = %v, want %v", got, want)
	}
	if ref := mapWalkSoftDirty(as); !slices.Equal(got, ref) {
		t.Fatalf("log result %v diverges from page-table walk %v", got, ref)
	}
	if as.DirtyLogArmed() || as.FreshLogArmed() {
		t.Fatalf("after the move: dirty log armed=%v, fresh log armed=%v, want neither", as.DirtyLogArmed(), as.FreshLogArmed())
	}
	for name, read := range map[string]func([]uint64) []uint64{"AppendFreshVPNs": as.AppendFreshVPNs, "AppendLostVPNs": as.AppendLostVPNs} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s answered for an epoch its log does not cover", name)
				}
			}()
			read(nil)
		}()
	}
	as.ClearSoftDirty()
	if !as.DirtyLogArmed() || !as.FreshLogArmed() || len(as.AppendLostVPNs(nil)) != 0 {
		t.Fatal("ClearSoftDirty did not re-arm the three logs empty")
	}
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
