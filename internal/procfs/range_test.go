package procfs

import (
	"slices"
	"testing"

	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

func rangeTestProcess(t *testing.T) (*kernel.Kernel, *kernel.Process, *FS) {
	t.Helper()
	k := kernel.New(kernel.Default())
	p, err := k.Spawn(kernel.ExecSpec{TextPages: 4, DataPages: 2, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AS.Brk(p.AS.HeapBase() + 8*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p.AS.WriteWord(p.AS.HeapBase()+vm.Addr(i*mem.PageSize), uint64(i+1))
	}
	return k, p, New(k)
}

// scanAll stitches PagemapRangePresent across every region of p, the way the
// snapshotter reads the pagemap.
func scanAll(fs *FS, p *kernel.Process, meter *sim.Meter) []vm.PagemapEntry {
	var out []vm.PagemapEntry
	for _, v := range p.AS.VMAs() {
		out = fs.PagemapRangePresent(p, v.Start, v.End, meter, out)
	}
	return out
}

// TestPagemapRangeEquivalentToFullScan asserts the VMA-scoped scan, stitched
// across all regions, reproduces a page-by-page walk of the page table: one
// entry per resident page, in address order, carrying its soft-dirty bit, and
// nothing for a page that is not resident.
func TestPagemapRangeEquivalentToFullScan(t *testing.T) {
	_, p, fs := rangeTestProcess(t)
	p.AS.TouchPage((p.AS.HeapBase() + 6*mem.PageSize).PageNum()) // resident, clean
	var want []vm.PagemapEntry
	for _, v := range p.AS.VMAs() {
		for vpn := v.Start.PageNum(); vpn < v.End.PageNum(); vpn++ {
			if pte, ok := p.AS.PTEAt(vpn); ok {
				want = append(want, vm.PagemapEntry{VPN: vpn, SoftDirty: pte.SoftDirty})
			}
		}
	}
	got := scanAll(fs, p, nil)
	if !slices.Equal(got, want) {
		t.Fatalf("ranged scan %+v, page-table walk %+v", got, want)
	}
	clean, dirty := 0, 0
	for _, e := range got {
		if e.SoftDirty {
			dirty++
		} else {
			clean++
		}
	}
	if dirty < 5 || clean == 0 {
		t.Fatalf("scan saw %d dirty and %d clean entries; the fixture has both", dirty, clean)
	}
}

// The charge is the file read's, not the walk's: the seek plus every page of
// the span, whether the span is fully resident, sparse, or empty.
func TestPagemapRangeChargesSeekPlusPerPage(t *testing.T) {
	k, p, fs := rangeTestProcess(t)
	empty, err := p.AS.Mmap(64*mem.PageSize, vm.ProtRW, vm.KindAnon, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range p.AS.VMAs() {
		m := sim.NewMeter()
		got := fs.PagemapRangePresent(p, v.Start, v.End, m, nil)
		want := k.Cost.PagemapRangeBase + k.Cost.PagemapPerPage*sim.Duration(v.Pages())
		if m.Total() != want {
			t.Fatalf("%v: ranged scan cost %v, want %v", v, m.Total(), want)
		}
		if v.Start == empty && len(got) != 0 {
			t.Fatalf("untouched mapping yielded entries %+v", got)
		}
	}
}

func TestPagemapRangeReusesBuffer(t *testing.T) {
	_, p, fs := rangeTestProcess(t)
	heap, _ := p.AS.FindVMA(p.AS.HeapBase())
	buf := fs.PagemapRangePresent(p, heap.Start, heap.End, nil, nil)
	if len(buf) != 5 {
		t.Fatalf("heap scan yields %d entries, want the 5 written pages", len(buf))
	}
	again := fs.PagemapRangePresent(p, heap.Start, heap.End, nil, buf[:0])
	if &again[0] != &buf[0] || !slices.Equal(again, buf) {
		t.Fatal("PagemapRangePresent reallocated despite sufficient capacity")
	}
}

// TestMapsRegionsEquivalentToTextPath asserts the binary maps fast path
// returns exactly what rendering and re-parsing the text form does, at the
// same metered cost.
func TestMapsRegionsEquivalentToTextPath(t *testing.T) {
	_, p, fs := rangeTestProcess(t)

	mText := sim.NewMeter()
	parsed, err := ParseMaps(fs.Maps(p, mText))
	if err != nil {
		t.Fatal(err)
	}
	mBin := sim.NewMeter()
	direct := fs.MapsRegions(p, mBin, nil)

	if len(direct) != len(parsed) {
		t.Fatalf("binary path %d regions, text path %d", len(direct), len(parsed))
	}
	for i := range parsed {
		if direct[i] != parsed[i] {
			t.Fatalf("region %d: binary %+v != text %+v", i, direct[i], parsed[i])
		}
	}
	if mBin.Total() != mText.Total() {
		t.Fatalf("binary path cost %v, text path %v", mBin.Total(), mText.Total())
	}
}
