package vm

import (
	"slices"
	"testing"

	"groundhog/internal/mem"
	"groundhog/internal/sim"
)

// newTestSpace returns an address space with a text segment, a heap, and a
// stack, using free costs.
func newTestSpace(t *testing.T) *AddressSpace {
	t.Helper()
	as := New(mem.New(), Costs{})
	if _, err := as.SetupText(16 * mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.SetupHeap(0x01000000); err != nil {
		t.Fatal(err)
	}
	if _, err := as.SetupStack(DefaultStackBytes); err != nil {
		t.Fatal(err)
	}
	return as
}

func mustBrk(t *testing.T, as *AddressSpace, a Addr) {
	t.Helper()
	if _, err := as.Brk(a); err != nil {
		t.Fatal(err)
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x1000*5 + 8)
	if a.PageNum() != 5 {
		t.Fatalf("PageNum = %d", a.PageNum())
	}
	if a.PageOff() != 8 {
		t.Fatalf("PageOff = %d", a.PageOff())
	}
	if a.Aligned() {
		t.Fatal("unaligned address reported aligned")
	}
	if PageAddr(5) != 0x5000 {
		t.Fatalf("PageAddr = %v", PageAddr(5))
	}
	if PageCeil(1) != mem.PageSize || PageCeil(mem.PageSize) != mem.PageSize {
		t.Fatal("PageCeil wrong")
	}
}

func TestProtRoundTrip(t *testing.T) {
	for _, p := range []Prot{0, ProtRead, ProtRW, ProtRead | ProtExec, ProtRW | ProtExec} {
		got, err := ParseProt(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseProt(%q) = %v, %v", p.String(), got, err)
		}
	}
}

func TestKindRoundTrip(t *testing.T) {
	for k := KindAnon; k <= KindFile; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
}

func TestHeapWriteReadBack(t *testing.T) {
	as := newTestSpace(t)
	mustBrk(t, as, 0x01000000+64*mem.PageSize)
	as.WriteWord(0x01000008, 42)
	if got := as.ReadWord(0x01000008); got != 42 {
		t.Fatalf("ReadWord = %d", got)
	}
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDemandZeroFaultOncePerPage(t *testing.T) {
	as := newTestSpace(t)
	mustBrk(t, as, 0x01000000+4*mem.PageSize)
	base := Addr(0x01000000)
	as.WriteWord(base, 1)
	as.WriteWord(base+8, 2)
	as.ReadWord(base + 16)
	if f := as.Faults(); f.Minor != 1 {
		t.Fatalf("minor faults = %d, want 1", f.Minor)
	}
	as.ReadWord(base + mem.PageSize)
	if f := as.Faults(); f.Minor != 2 {
		t.Fatalf("minor faults = %d, want 2", f.Minor)
	}
}

func TestSegfaultOutsideMapping(t *testing.T) {
	as := newTestSpace(t)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("no panic on wild access")
		} else if _, ok := r.(SegfaultError); !ok {
			t.Fatalf("panic value %T, want SegfaultError", r)
		}
	}()
	as.ReadWord(0x00deadbeef0000)
}

func TestSegfaultOnWriteToText(t *testing.T) {
	as := newTestSpace(t)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("no panic writing to r-x text")
		}
	}()
	as.WriteWord(TextBase, 1)
}

func TestSoftDirtyTracking(t *testing.T) {
	as := newTestSpace(t)
	heap := Addr(0x01000000)
	mustBrk(t, as, heap+16*mem.PageSize)
	// Populate four pages.
	for i := uint64(0); i < 4; i++ {
		as.WriteWord(heap+Addr(i*mem.PageSize), 1)
	}
	walked := as.ClearSoftDirty()
	if walked != 4 {
		t.Fatalf("ClearSoftDirty walked %d entries, want 4", walked)
	}
	if got := as.AppendSoftDirtyVPNs(nil); len(got) != 0 {
		t.Fatalf("dirty set after clear: %v", got)
	}
	as.ResetFaults()
	// Dirty pages 1 and 3; read page 0.
	as.WriteWord(heap+1*mem.PageSize, 9)
	as.WriteWord(heap+3*mem.PageSize+8, 9)
	as.ReadWord(heap)
	dirty := as.AppendSoftDirtyVPNs(nil)
	want := []uint64{(heap + 1*mem.PageSize).PageNum(), (heap + 3*mem.PageSize).PageNum()}
	if len(dirty) != 2 || dirty[0] != want[0] || dirty[1] != want[1] {
		t.Fatalf("dirty = %v, want %v", dirty, want)
	}
	if f := as.Faults(); f.SoftDirty != 2 {
		t.Fatalf("soft-dirty faults = %d, want 2", f.SoftDirty)
	}
	// Second write to the same page: no further fault.
	as.WriteWord(heap+1*mem.PageSize, 10)
	if f := as.Faults(); f.SoftDirty != 2 {
		t.Fatalf("repeat write re-faulted: %d", f.SoftDirty)
	}
}

func TestSoftDirtySetOnFreshPages(t *testing.T) {
	as := newTestSpace(t)
	heap := Addr(0x01000000)
	mustBrk(t, as, heap+mem.PageSize)
	as.WriteWord(heap, 1)
	if d := as.AppendSoftDirtyVPNs(nil); len(d) != 1 {
		t.Fatalf("fresh write not recorded dirty: %v", d)
	}
}

func TestFaultCostsCharged(t *testing.T) {
	costs := Costs{
		ReadWord:       1,
		WriteWord:      2,
		MinorFault:     100,
		SoftDirtyFault: 50,
	}
	as := New(mem.New(), costs)
	if err := as.SetupHeap(0x01000000); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Brk(0x01000000 + 8*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	m := sim.NewMeter()
	as.SetMeter(m)
	as.WriteWord(0x01000000, 1) // minor fault + write
	if got := m.Total(); got != 102 {
		t.Fatalf("first write cost %v, want 102", got)
	}
	as.ClearSoftDirty()
	m.Reset()
	as.WriteWord(0x01000000, 2) // SD fault + write
	if got := m.Total(); got != 52 {
		t.Fatalf("tracked write cost %v, want 52", got)
	}
	m.Reset()
	as.WriteWord(0x01000000, 3) // warm write
	if got := m.Total(); got != 2 {
		t.Fatalf("warm write cost %v, want 2", got)
	}
}

func TestPeekPokeBypassTracking(t *testing.T) {
	as := newTestSpace(t)
	heap := Addr(0x01000000)
	mustBrk(t, as, heap+2*mem.PageSize)
	as.WriteWord(heap, 77)
	as.ClearSoftDirty()

	vpn := heap.PageNum()
	snap := as.PeekPage(vpn)
	if snap == nil {
		t.Fatal("PeekPage returned nil for written page")
	}
	as.PokePage(vpn, nil) // zero it
	if as.ReadWord(heap) != 0 {
		t.Fatal("PokePage(nil) did not zero")
	}
	as.PokePage(vpn, snap)
	if as.ReadWord(heap) != 77 {
		t.Fatal("PokePage did not restore contents")
	}
	if f := as.Faults(); f.SoftDirty != 0 {
		t.Fatalf("kernel-side pokes took SD faults: %+v", f)
	}
}

func TestPeekNonResidentReturnsNil(t *testing.T) {
	as := newTestSpace(t)
	if as.PeekPage(0x01000000>>12) != nil {
		t.Fatal("PeekPage of non-resident page not nil")
	}
}

func TestMmapMunmapLifecycle(t *testing.T) {
	as := newTestSpace(t)
	a, err := as.Mmap(10*mem.PageSize, ProtRW, KindAnon, "buf")
	if err != nil {
		t.Fatal(err)
	}
	as.WriteWord(a, 5)
	as.WriteWord(a+9*mem.PageSize, 6)
	if as.ResidentPages() != 2 {
		t.Fatalf("resident = %d, want 2", as.ResidentPages())
	}
	if err := as.Munmap(a, 10*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if as.ResidentPages() != 0 {
		t.Fatalf("resident = %d after munmap", as.ResidentPages())
	}
	if as.Phys().InUse() != 0 {
		t.Fatalf("leaked %d frames", as.Phys().InUse())
	}
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("access to unmapped region did not fault")
		}
	}()
	as.ReadWord(a)
}

func TestMunmapSplitsRegion(t *testing.T) {
	as := newTestSpace(t)
	a, err := as.Mmap(10*mem.PageSize, ProtRW, KindAnon, "")
	if err != nil {
		t.Fatal(err)
	}
	before := as.NumVMAs()
	// Punch a 2-page hole in the middle.
	if err := as.Munmap(a+4*mem.PageSize, 2*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if as.NumVMAs() != before+1 {
		t.Fatalf("VMAs = %d, want %d (split into two)", as.NumVMAs(), before+1)
	}
	as.WriteWord(a, 1)                // left part still mapped
	as.WriteWord(a+7*mem.PageSize, 1) // right part still mapped
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("hole did not fault")
		}
	}()
	as.ReadWord(a + 5*mem.PageSize)
}

func TestMmapFixedRejectsOverlap(t *testing.T) {
	as := newTestSpace(t)
	a, err := as.Mmap(4*mem.PageSize, ProtRW, KindAnon, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := as.MmapFixed(a+mem.PageSize, mem.PageSize, ProtRW, KindAnon, ""); err == nil {
		t.Fatal("overlapping MmapFixed succeeded")
	}
	if err := as.Munmap(a, 4*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.MmapFixed(a, 4*mem.PageSize, ProtRW, KindAnon, ""); err != nil {
		t.Fatalf("MmapFixed into freed range: %v", err)
	}
}

func TestBrkGrowShrink(t *testing.T) {
	as := newTestSpace(t)
	base := Addr(0x01000000)
	mustBrk(t, as, base+8*mem.PageSize)
	if as.BrkValue() != base+8*mem.PageSize {
		t.Fatalf("brk = %v", as.BrkValue())
	}
	for i := uint64(0); i < 8; i++ {
		as.WriteWord(base+Addr(i*mem.PageSize), i)
	}
	// Shrink to 3 pages: pages 3..7 must be released.
	mustBrk(t, as, base+3*mem.PageSize)
	if as.ResidentPages() != 3 {
		t.Fatalf("resident = %d after shrink, want 3", as.ResidentPages())
	}
	// Grow again: previously released pages come back zeroed.
	mustBrk(t, as, base+8*mem.PageSize)
	if got := as.ReadWord(base + 5*mem.PageSize); got != 0 {
		t.Fatalf("regrown page not zero: %d", got)
	}
	if got := as.ReadWord(base + 2*mem.PageSize); got != 2 {
		t.Fatalf("survived page lost: %d", got)
	}
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBrkQueryAndErrors(t *testing.T) {
	as := newTestSpace(t)
	cur, err := as.Brk(0)
	if err != nil || cur != 0x01000000 {
		t.Fatalf("Brk(0) = %v, %v", cur, err)
	}
	if _, err := as.Brk(0x100); err == nil {
		t.Fatal("brk below base succeeded")
	}
	empty := New(mem.New(), Costs{})
	if _, err := empty.Brk(0x2000); err == nil {
		t.Fatal("brk without heap succeeded")
	}
}

func TestMadviseDropsFrames(t *testing.T) {
	as := newTestSpace(t)
	a, err := as.Mmap(4*mem.PageSize, ProtRW, KindAnon, "")
	if err != nil {
		t.Fatal(err)
	}
	as.WriteWord(a, 1)
	as.WriteWord(a+mem.PageSize, 2)
	if err := as.Madvise(a, 4*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if as.ResidentPages() != 0 {
		t.Fatal("madvise left resident pages")
	}
	if as.ReadWord(a) != 0 {
		t.Fatal("madvised page not zero on refault")
	}
}

func TestMprotectSplits(t *testing.T) {
	as := newTestSpace(t)
	a, err := as.Mmap(6*mem.PageSize, ProtRW, KindAnon, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Mprotect(a+2*mem.PageSize, 2*mem.PageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	v, ok := as.FindVMA(a + 2*mem.PageSize)
	if !ok || v.Prot != ProtRead {
		t.Fatalf("mprotect not applied: %v", v)
	}
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("write to read-only page did not fault")
		}
	}()
	as.WriteWord(a+2*mem.PageSize, 1)
}

func TestStackAccess(t *testing.T) {
	as := newTestSpace(t)
	sp := StackTop - 64
	as.WriteWord(sp, 0xabc)
	if as.ReadWord(sp) != 0xabc {
		t.Fatal("stack write lost")
	}
}

func TestMappedPagesAccounting(t *testing.T) {
	as := newTestSpace(t)
	before := as.MappedPages()
	if _, err := as.Mmap(25*mem.PageSize, ProtRW, KindAnon, ""); err != nil {
		t.Fatal(err)
	}
	if as.MappedPages() != before+25 {
		t.Fatalf("MappedPages = %d, want %d", as.MappedPages(), before+25)
	}
}

func TestVMAStringFormat(t *testing.T) {
	v := VMA{Start: 0x400000, End: 0x401000, Prot: ProtRead | ProtExec, Kind: KindText}
	s := v.String()
	if s != "000000400000-000000401000 r-xp [text]" {
		t.Fatalf("VMA string = %q", s)
	}
}

func TestReleaseFreesAllFrames(t *testing.T) {
	as := newTestSpace(t)
	mustBrk(t, as, 0x01000000+16*mem.PageSize)
	for i := 0; i < 16; i++ {
		as.WriteWord(0x01000000+Addr(i*mem.PageSize), 1)
	}
	as.Release()
	if as.Phys().InUse() != 0 {
		t.Fatalf("Release leaked %d frames", as.Phys().InUse())
	}
}

// A page table that loses its only page in a chunk and gains one again — a
// request's scratch region, unmapped by the rollback — reuses the emptied
// chunk instead of allocating one per request.
func TestEmptiedPageTableChunkIsReused(t *testing.T) {
	as := runTestSpace(t, 4)
	vpn := Addr(0x100000).PageNum()
	allocs := testing.AllocsPerRun(100, func() {
		as.DirtyPage(vpn, 0)
		as.DropPage(vpn)
	})
	if allocs != 0 {
		t.Fatalf("fault + drop of a chunk's only page allocated %.1f times, want 0", allocs)
	}
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Region-list surgery on a warm address space happens in place: a request's
// scratch mapping unmapped by the rollback, and an mprotect split the rollback
// merges back, allocate nothing once the list and carve's scratch have their
// capacity — with the epoch logs armed, so the munmap's drop is logged, read
// back and truncated by the clear every cycle.
func TestLayoutOpsOnWarmSpaceAllocateNothing(t *testing.T) {
	as := newTestSpace(t)
	heap := as.HeapBase()
	mustBrk(t, as, heap+16*mem.PageSize)
	want := as.VMAs()
	as.ClearSoftDirty()
	var lost []uint64
	cycle := func() {
		a, err := as.Mmap(4*mem.PageSize, ProtRW, KindAnon, "")
		if err != nil {
			t.Fatal(err)
		}
		as.WriteWord(a+mem.PageSize, 1)
		if err := as.Munmap(a, 4*mem.PageSize); err != nil {
			t.Fatal(err)
		}
		if err := as.Mprotect(heap+4*mem.PageSize, 4*mem.PageSize, ProtRead); err != nil {
			t.Fatal(err)
		}
		if as.NumVMAs() != len(want)+2 {
			t.Fatalf("mprotect of the heap's middle left %d regions, want %d", as.NumVMAs(), len(want)+2)
		}
		if err := as.Mprotect(heap+4*mem.PageSize, 4*mem.PageSize, ProtRW); err != nil {
			t.Fatal(err)
		}
		if lost = as.AppendLostVPNs(lost[:0]); len(lost) != 1 || lost[0] != (a+mem.PageSize).PageNum() {
			t.Fatalf("lost log reads %x, want the scratch mapping's written page %x", lost, (a + mem.PageSize).PageNum())
		}
		as.ClearSoftDirty()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("mmap/munmap + mprotect split/merge allocated %.1f times per cycle, want 0", allocs)
	}
	if got := as.VMAs(); !slices.Equal(got, want) {
		t.Fatalf("layout after the cycles:\n%v\nwant\n%v", got, want)
	}
	if err := as.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
