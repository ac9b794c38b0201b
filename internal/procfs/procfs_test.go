package procfs

import (
	"fmt"
	"slices"
	"strings"
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

func TestMapsRenderAndParseRoundTrip(t *testing.T) {
	_, p, fs := newProc(t)
	if _, err := p.AS.Brk(p.AS.HeapBase() + 3*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AS.Mmap(2*mem.PageSize, vm.ProtRead, vm.KindFile, "/lib/libfoo.so"); err != nil {
		t.Fatal(err)
	}
	text := fs.Maps(p, nil)
	parsed, err := ParseMaps(text)
	if err != nil {
		t.Fatalf("ParseMaps: %v\n%s", err, text)
	}
	want := p.AS.VMAs()
	if len(parsed) != len(want) {
		t.Fatalf("parsed %d regions, want %d\n%s", len(parsed), len(want), text)
	}
	for i := range want {
		if parsed[i].Start != want[i].Start || parsed[i].End != want[i].End ||
			parsed[i].Prot != want[i].Prot || parsed[i].Kind != want[i].Kind ||
			parsed[i].Name != want[i].Name {
			t.Fatalf("region %d: parsed %+v, want %+v", i, parsed[i], want[i])
		}
	}
}

func TestMapsIncludesNamedFile(t *testing.T) {
	_, p, fs := newProc(t)
	if _, err := p.AS.Mmap(mem.PageSize, vm.ProtRead, vm.KindFile, "/usr/lib/python3.8"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fs.Maps(p, nil), "/usr/lib/python3.8") {
		t.Fatal("maps missing file name")
	}
}

func TestParseMapsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"not a maps line at all x y",
		"zzzz-qqqq rw-p 00000000 00:00 0 [heap]",
	} {
		if _, err := ParseMaps(bad); err == nil {
			t.Fatalf("ParseMaps accepted %q", bad)
		}
	}
}

func TestParseMapsSkipsBlankLines(t *testing.T) {
	got, err := ParseMaps("\n\n")
	if err != nil || len(got) != 0 {
		t.Fatalf("blank input: %v, %v", got, err)
	}
}

func TestMapsCostScalesWithVMAs(t *testing.T) {
	k, p, fs := newProc(t)
	m1 := sim.NewMeter()
	fs.Maps(p, m1)
	for i := 0; i < 10; i++ {
		// Distinct names prevent the mm from merging adjacent regions.
		if _, err := p.AS.Mmap(mem.PageSize, vm.ProtRW, vm.KindFile, fmt.Sprintf("/lib/l%d.so", i)); err != nil {
			t.Fatal(err)
		}
	}
	m2 := sim.NewMeter()
	fs.Maps(p, m2)
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
	want := []vm.PagemapEntry{
		{VPN: heap.PageNum(), SoftDirty: true},
		{VPN: heap.PageNum() + 2, SoftDirty: true},
		{VPN: heap.PageNum() + 3}, // read only: present, clean
	}
	if !slices.Equal(got, want) { // the untouched page 1 has no entry
		t.Fatalf("heap entries = %+v, want %+v", got, want)
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
			if e.SoftDirty {
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
