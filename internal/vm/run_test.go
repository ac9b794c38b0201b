package vm

import (
	"bytes"
	"testing"

	"groundhog/internal/mem"
)

func runTestSpace(t *testing.T, pages int) *AddressSpace {
	t.Helper()
	as := New(mem.New(), Costs{})
	if err := as.MmapFixed(0x100000, pages*mem.PageSize, ProtRW, KindAnon, ""); err != nil {
		t.Fatal(err)
	}
	return as
}

// pageRun is PokePageRun's source for n pages: data split into whole pages,
// or n all-zero (nil) pages if data is nil.
func pageRun(n int, data []byte) []*[mem.PageSize]byte {
	pages := make([]*[mem.PageSize]byte, n)
	if data != nil {
		for i := range pages {
			pages[i] = (*[mem.PageSize]byte)(data[i*mem.PageSize:])
		}
	}
	return pages
}

func TestPokePageRunMatchesPerPagePokes(t *testing.T) {
	asRun := runTestSpace(t, 8)
	asOne := runTestSpace(t, 8)
	base := Addr(0x100000).PageNum()

	data := make([]byte, 4*mem.PageSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	asRun.PokePageRun(base+2, pageRun(4, data))
	for i := 0; i < 4; i++ {
		asOne.pokePage(base+2+uint64(i), data[i*mem.PageSize:(i+1)*mem.PageSize])
	}
	for i := uint64(0); i < 8; i++ {
		got, want := asRun.PeekPage(base+i), asOne.PeekPage(base+i)
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d: run-poked contents differ from per-page pokes", i)
		}
	}
	if asRun.ResidentPages() != asOne.ResidentPages() {
		t.Fatalf("resident pages %d != %d", asRun.ResidentPages(), asOne.ResidentPages())
	}
}

func TestPokePageRunNilZeroesRun(t *testing.T) {
	as := runTestSpace(t, 4)
	base := Addr(0x100000).PageNum()
	for i := uint64(0); i < 4; i++ {
		as.WriteWord(PageAddr(base+i), 0xFF)
	}
	as.PokePageRun(base, pageRun(4, nil))
	for i := uint64(0); i < 4; i++ {
		if as.PeekPage(base+i) != nil {
			t.Fatalf("page %d not zeroed by nil run", i)
		}
	}
}

func TestPokeFrameRunCopiesFrames(t *testing.T) {
	as := runTestSpace(t, 4)
	base := Addr(0x100000).PageNum()
	// Build two source frames the caller owns.
	phys := as.Phys()
	f1, f2 := phys.Alloc(), phys.Alloc()
	phys.WriteWord(f1, 0, 0x11)
	phys.WriteWord(f2, 8, 0x22)
	as.PokeFrameRun(base+1, []mem.FrameID{f1, f2})
	if got := as.ReadWord(PageAddr(base + 1)); got != 0x11 {
		t.Fatalf("first run page = %#x, want 0x11", got)
	}
	if got := as.ReadWord(PageAddr(base+2) + 8); got != 0x22 {
		t.Fatalf("second run page = %#x, want 0x22", got)
	}
}

func TestPeekPageIntoMatchesPeekPage(t *testing.T) {
	as := runTestSpace(t, 4)
	base := Addr(0x100000).PageNum()
	as.WriteWord(PageAddr(base), 0xAA)  // materialized content
	as.TouchPage(base + 1)              // resident, lazily zero
	as.WriteWord(PageAddr(base+2), 0x1) // materialize...
	as.pokePage(base+2, nil)            // ...then reset to lazy zero
	buf := make([]byte, mem.PageSize)

	zero, ok := as.PeekPageInto(base, buf)
	if !ok || zero {
		t.Fatalf("content page: zero=%v ok=%v", zero, ok)
	}
	if !bytes.Equal(buf, as.PeekPage(base)) {
		t.Fatal("PeekPageInto bytes differ from PeekPage")
	}
	if zero, ok := as.PeekPageInto(base+1, buf); !ok || !zero {
		t.Fatalf("lazy-zero page: zero=%v ok=%v, want zero resident", zero, ok)
	}
	if _, ok := as.PeekPageInto(base+3, buf); ok {
		t.Fatal("non-resident page reported ok")
	}
}

func TestAppendVMAsReusesBuffer(t *testing.T) {
	as := runTestSpace(t, 2)
	buf := as.AppendVMAs(nil)
	if len(buf) != as.NumVMAs() {
		t.Fatalf("AppendVMAs returned %d regions, want %d", len(buf), as.NumVMAs())
	}
	again := as.AppendVMAs(buf[:0])
	if &again[0] != &buf[0] {
		t.Fatal("AppendVMAs reallocated despite sufficient capacity")
	}
	want := as.VMAs()
	for i := range want {
		if again[i] != want[i] {
			t.Fatalf("region %d = %+v, want %+v", i, again[i], want[i])
		}
	}
}

// TestPokePageRunBreaksCoW ensures batched pokes preserve PokePage's CoW
// semantics: a forked child sharing frames must not observe the poke.
func TestPokePageRunBreaksCoW(t *testing.T) {
	as := runTestSpace(t, 2)
	base := Addr(0x100000).PageNum()
	as.WriteWord(PageAddr(base), 0xAAA)
	as.WriteWord(PageAddr(base+1), 0xBBB)
	child := as.Fork()
	data := make([]byte, 2*mem.PageSize)
	data[0] = 0x42
	as.PokePageRun(base, pageRun(2, data))
	if got := child.ReadWord(PageAddr(base)); got != 0xAAA {
		t.Fatalf("child saw parent's poked value: %#x", got)
	}
	if got := as.ReadWord(PageAddr(base)); got != 0x42 {
		t.Fatalf("parent poke lost: %#x", got)
	}
}
