package procfs

import (
	"fmt"
	"slices"
	"testing"

	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

func newProc(t *testing.T) (*kernel.Kernel, *kernel.Process, *FS) {
	t.Helper()
	k := kernel.New(kernel.Default())
	p, err := k.Spawn(kernel.ExecSpec{TextPages: 4, DataPages: 2, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	return k, p, New(k)
}

// The read keeps what /proc/pid/maps shows of a region: its name, and
// whether it is anonymous, even when it has a name.
func TestMapsIncludesNamedFile(t *testing.T) {
	_, p, fs := newProc(t)
	lib, err := p.AS.Mmap(mem.PageSize, vm.ProtRead, vm.KindFile, "/usr/lib/python3.8")
	if err != nil {
		t.Fatal(err)
	}
	anon, err := p.AS.Mmap(mem.PageSize, vm.ProtRW, vm.KindAnon, "named-anon")
	if err != nil {
		t.Fatal(err)
	}
	want := map[vm.Addr]vm.VMA{
		lib:  {Start: lib, End: lib + mem.PageSize, Prot: vm.ProtRead, Kind: vm.KindFile, Name: "/usr/lib/python3.8"},
		anon: {Start: anon, End: anon + mem.PageSize, Prot: vm.ProtRW, Kind: vm.KindAnon, Name: "named-anon"},
	}
	for _, v := range fs.MapsRegions(p, nil, nil) {
		if w, ok := want[v.Start]; ok {
			if v != w {
				t.Fatalf("maps reads %+v, want %+v", v, w)
			}
			delete(want, v.Start)
		}
	}
	if len(want) != 0 {
		t.Fatalf("maps missing regions %+v", want)
	}
}

func TestMapsCostScalesWithVMAs(t *testing.T) {
	k, p, fs := newProc(t)
	m1 := sim.NewMeter()
	fs.MapsRegions(p, m1, nil)
	if want := k.Cost.ReadMapsBase + k.Cost.ReadMapsPerVMA*sim.Duration(p.AS.NumVMAs()); m1.Total() != want {
		t.Fatalf("cost = %v, want %v", m1.Total(), want)
	}
	for i := 0; i < 10; i++ {
		// Distinct names prevent the mm from merging adjacent regions.
		if _, err := p.AS.Mmap(mem.PageSize, vm.ProtRW, vm.KindFile, fmt.Sprintf("/lib/l%d.so", i)); err != nil {
			t.Fatal(err)
		}
	}
	m2 := sim.NewMeter()
	fs.MapsRegions(p, m2, nil)
	wantDelta := k.Cost.ReadMapsPerVMA * 10
	if m2.Total()-m1.Total() != wantDelta {
		t.Fatalf("cost delta = %v, want %v", m2.Total()-m1.Total(), wantDelta)
	}
}

func TestPagemapFlags(t *testing.T) {
	_, p, fs := newProc(t)
	heap := p.AS.HeapBase()
	if _, err := p.AS.Brk(heap + 4*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	p.AS.WriteWord(heap, 1)
	p.AS.WriteWord(heap+2*mem.PageSize, 1)
	p.AS.ReadWord(heap + 3*mem.PageSize)
	got := fs.PagemapRangePresent(p, heap, heap+4*mem.PageSize, nil, nil)
	want := []vm.PagemapEntry{{VPN: heap.PageNum()}, {VPN: heap.PageNum() + 2}, {VPN: heap.PageNum() + 3}}
	if !slices.Equal(got, want) { // the untouched page 1 has no entry
		t.Fatalf("heap entries = %+v, want %+v", got, want)
	}
	for i, dirty := range []bool{true, true, false} { // page 3 was only read: present, clean
		if pte, _ := p.AS.PTEAt(got[i].VPN); pte.SoftDirty != dirty {
			t.Fatalf("page %x soft-dirty = %v, want %v", got[i].VPN, pte.SoftDirty, dirty)
		}
	}
}

// Stitched over the regions, the scan sees every resident page and pays for
// every mapped one.
func TestPagemapCoversWholeMappedSpace(t *testing.T) {
	k, p, fs := newProc(t)
	m := sim.NewMeter()
	entries := scanAll(fs, p, m)
	var vpns []uint64
	for _, e := range entries {
		vpns = append(vpns, e.VPN)
	}
	if !slices.Equal(vpns, p.AS.ResidentVPNs()) {
		t.Fatalf("pagemap entries %x, resident set %x", vpns, p.AS.ResidentVPNs())
	}
	want := k.Cost.PagemapRangeBase*sim.Duration(p.AS.NumVMAs()) +
		k.Cost.PagemapPerPage*sim.Duration(p.AS.MappedPages())
	if m.Total() != want {
		t.Fatalf("scan cost = %v, want %v for %d regions, %d mapped pages", m.Total(), want, p.AS.NumVMAs(), p.AS.MappedPages())
	}
}

func TestPagemapScanCostProportionalToAddressSpace(t *testing.T) {
	k, p, fs := newProc(t)
	m1 := sim.NewMeter()
	before := len(scanAll(fs, p, m1))
	regions := p.AS.NumVMAs()
	if _, err := p.AS.Mmap(1000*mem.PageSize, vm.ProtRW, vm.KindAnon, ""); err != nil {
		t.Fatal(err)
	}
	m2 := sim.NewMeter()
	after := len(scanAll(fs, p, m2))
	if after != before {
		t.Fatalf("an untouched mapping changed the entry count: %d -> %d", before, after)
	}
	// 1000 pages nobody touched still cost 1000 entries' worth of reading
	// (plus the new region's seek).
	wantDelta := k.Cost.PagemapPerPage*1000 + k.Cost.PagemapRangeBase*sim.Duration(p.AS.NumVMAs()-regions)
	if m2.Total()-m1.Total() != wantDelta {
		t.Fatalf("scan cost delta = %v, want %v", m2.Total()-m1.Total(), wantDelta)
	}
}

func TestSoftDirtyLifecycle(t *testing.T) {
	_, p, fs := newProc(t)
	heap := p.AS.HeapBase()
	if _, err := p.AS.Brk(heap + 8*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), 1)
	}
	dirty := func() []uint64 {
		var d []uint64
		for _, e := range fs.PagemapRangePresent(p, heap, heap+8*mem.PageSize, nil, nil) {
			if pte, _ := p.AS.PTEAt(e.VPN); pte.SoftDirty {
				d = append(d, e.VPN)
			}
		}
		return d
	}
	if d := dirty(); len(d) != 8 {
		t.Fatalf("dirty before clear: %v, want all 8 pages", d)
	}
	fs.ClearRefs(p, nil)
	if d := dirty(); len(d) != 0 {
		t.Fatalf("dirty after clear: %v", d)
	}
	if n := len(fs.PagemapRangePresent(p, heap, heap+8*mem.PageSize, nil, nil)); n != 8 {
		t.Fatalf("clear_refs changed residency: %d entries, want 8", n)
	}
	p.AS.WriteWord(heap+5*mem.PageSize, 2)
	if d := dirty(); len(d) != 1 || d[0] != (heap+5*mem.PageSize).PageNum() {
		t.Fatalf("dirty = %v", d)
	}
}

func TestClearRefsCostPerResidentPage(t *testing.T) {
	k, p, fs := newProc(t)
	heap := p.AS.HeapBase()
	if _, err := p.AS.Brk(heap + 6*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), 1)
	}
	resident := p.AS.ResidentPages()
	m := sim.NewMeter()
	fs.ClearRefs(p, m)
	want := k.Cost.ClearRefsPerPage * sim.Duration(resident)
	if m.Total() != want {
		t.Fatalf("clear_refs cost = %v, want %v", m.Total(), want)
	}
}
