package vm

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"groundhog/internal/mem"
	"groundhog/internal/sim"
)

// The layout the access tests run on, in pages from accessBase: two adjacent
// writable regions (a list can cross from one into the other), a read-only
// one, a hole, and a third writable region, boxed in from above so that
// growing it moves it.
const accessBase = Addr(0x100000)

var accessLayout = []struct {
	page, pages int
	prot        Prot
	name        string
}{
	{0, 8, ProtRW, "a"},
	{8, 6, ProtRW, "b"},
	{14, 2, ProtRead, "ro"},
	// pages 16 and 17 are unmapped
	{18, 4, ProtRW, "c"},
	{22, 1, ProtRead, "box"},
}

// accessCosts prices every fault and access differently, so two meters agree
// only if the same faults were taken the same number of times.
var accessCosts = Costs{
	ReadWord: 3, WriteWord: 5, MinorFault: 101, SoftDirtyFault: 211,
	UffdFault: 503, CoWFault: 1009, FirstTouch: 2003,
}

func accessSpace(t testing.TB, uffd bool) *AddressSpace {
	t.Helper()
	as := New(mem.New(), accessCosts)
	as.SetUffdTracking(uffd)
	for _, r := range accessLayout {
		if err := as.MmapFixed(accessBase+Addr(r.page*mem.PageSize), r.pages*mem.PageSize, r.prot, KindAnon, r.name); err != nil {
			t.Fatal(err)
		}
	}
	return as
}

// accessOff maps b onto the word offsets of a page, the first and the last
// (0 and 4088: the ends of an extent) as often as all the others together.
func accessOff(b uint16) int {
	switch b % 4 {
	case 0:
		return 0
	case 1:
		return mem.PageSize - mem.WordSize
	}
	return int(b / 4 % 512 * mem.WordSize)
}

// accessPrep is one step of the history both twins share before the access
// under test.
type accessPrep struct {
	Op   uint8
	Page uint8
	Off  uint16
	V    uint64
}

// accessCase is one differential case: a history, then one list of pages
// accessed in a single batched call on one twin, by one-page calls on
// another and by the reference access on a third.
type accessCase struct {
	Uffd  bool
	Prep  []accessPrep
	Child bool    // access a fork child: every entry TLB-cold and CoW-shared
	Pages []uint8 // the list; duplicates and region crossings as drawn
	Write bool
	Off   uint16
	V     uint64
	Trap  uint8 // one case in three: a page the access must fault on, spliced into the list
}

// accessTwin builds one twin: the case's history, then the address space and
// list the access runs on. The second result releases what the history holds.
func accessTwin(t testing.TB, c accessCase) (*AddressSpace, []uint64, func()) {
	as := accessSpace(t, c.Uffd)
	base := accessBase.PageNum()
	// "c" is wherever the last move took it.
	cStart, cPages := PageAddr(base+18), 4
	writable := func(p uint8) uint64 { // pages of "a", "b" and "c"
		i := uint64(p) % 18
		if i >= 14 {
			return cStart.PageNum() + i - 14
		}
		return base + i
	}
	var shared []mem.FrameID
	var children []*AddressSpace
	for _, op := range c.Prep {
		vpn := writable(op.Page)
		switch op.Op % 9 {
		case 0, 1:
			as.WriteWord(PageAddr(vpn)+Addr(accessOff(op.Off)), op.V)
		case 2:
			as.TouchPage(vpn)
		case 3:
			as.DropPage(vpn)
		case 4, 5: // arm write protection and both logs
			as.ClearSoftDirty()
		case 6: // the CoW state store holds the frame
			if f, ok := as.ShareFrameCoW(vpn); ok {
				shared = append(shared, f)
			}
		case 7: // a live fork child shares every frame
			if len(children) < 2 {
				children = append(children, as.Fork())
			}
		case 8: // grow "c" by a page: a move the first time, in place after
			if got, err := as.Mremap(cStart, cPages*mem.PageSize, (cPages+1)*mem.PageSize); err == nil {
				cStart, cPages = got, cPages+1
			}
		}
	}
	target := as
	if c.Child {
		target = as.Fork()
		children = append(children, target)
	}
	target.SetMeter(sim.NewMeter())

	vpns := make([]uint64, 0, len(c.Pages)+1)
	for _, p := range c.Pages {
		if !c.Write && p%8 == 7 {
			vpns = append(vpns, base+14+uint64(p/8%2)) // reads may land in "ro"
			continue
		}
		vpns = append(vpns, writable(p))
	}
	if c.Trap%3 == 0 {
		bad := base + 16 + uint64(c.Trap/3%2) // the hole
		if c.Write && c.Trap/6%2 == 0 {
			bad = base + 14 + uint64(c.Trap/3%2) // a write to "ro"
		}
		vpns = slices.Insert(vpns, int(c.Trap/12)%(len(vpns)+1), bad)
	}
	return target, vpns, func() {
		for _, f := range shared {
			as.phys.Unref(f)
		}
		for _, ch := range children {
			ch.Release()
		}
		as.Release()
	}
}

// trapped runs f and returns what it panicked with, if anything.
func trapped(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// sameAccessState fails unless the two address spaces are indistinguishable:
// fault counters, meter, dirty and fresh sets and the raw logs behind them,
// every page-table entry (frame numbers included: each twin has its own
// physical memory and allocates in the same order) and every page's bytes.
// Once an epoch has started the dirty set must also be the page table's
// soft-dirty bits, whatever the history moved.
func sameAccessState(t *testing.T, got, ref *AddressSpace) bool {
	t.Helper()
	ok := true
	fail := func(format string, args ...any) {
		t.Helper()
		t.Logf(format, args...)
		ok = false
	}
	if b, s := got.Faults(), ref.Faults(); b != s {
		fail("faults: got %+v, reference %+v", b, s)
	}
	if b, s := got.Meter().Total(), ref.Meter().Total(); b != s {
		fail("meter: got %v, reference %v", b, s)
	}
	if b, s := got.AppendSoftDirtyVPNs(nil), ref.AppendSoftDirtyVPNs(nil); !slices.Equal(b, s) {
		fail("soft-dirty pages: got %x, reference %x", b, s)
	}
	if got.dirty.armed != ref.dirty.armed {
		fail("one twin has started an epoch, the other not")
	} else if got.dirty.armed {
		if b, s := got.AppendFreshVPNs(nil), ref.AppendFreshVPNs(nil); !slices.Equal(b, s) {
			fail("fresh pages: got %x, reference %x", b, s)
		}
		if b, w := got.AppendSoftDirtyVPNs(nil), mapWalkSoftDirty(got); !slices.Equal(b, w) {
			fail("dirty log %x, page-table walk %x", b, w)
		}
	}
	if !slices.Equal(got.dirty.vpns, ref.dirty.vpns) || !slices.Equal(got.fresh.vpns, ref.fresh.vpns) || !slices.Equal(got.lost.vpns, ref.lost.vpns) {
		fail("raw logs differ: dirty %x / %x, fresh %x / %x, lost %x / %x",
			got.dirty.vpns, ref.dirty.vpns, got.fresh.vpns, ref.fresh.vpns, got.lost.vpns, ref.lost.vpns)
	}
	resident := got.ResidentVPNs()
	if s := ref.ResidentVPNs(); !slices.Equal(resident, s) {
		fail("resident pages: got %x, reference %x", resident, s)
		return false
	}
	for _, vpn := range resident {
		b, _ := got.PTEAt(vpn)
		s, _ := ref.PTEAt(vpn)
		if b != s {
			fail("page %#x: entry %+v, reference %+v", vpn, b, s)
		}
		if !bytes.Equal(got.PeekPage(vpn), ref.PeekPage(vpn)) {
			fail("page %#x: contents differ", vpn)
		}
	}
	return ok
}

// refAccess is the reference the access loop is held to: one page, the
// region looked up and checked for this access alone, and the fault path
// taken unconditionally — no region carried over from the previous page, no
// shortcut for an entry that is already in the state fault would leave.
func refAccess(as *AddressSpace, vpn uint64, write bool, off int, v uint64) {
	a := PageAddr(vpn) + Addr(off)
	r, ok := as.FindVMA(a)
	need, cost := ProtRead, as.costs.ReadWord
	if write {
		need, cost = ProtWrite, as.costs.WriteWord
	}
	if !ok || r.Prot&need == 0 {
		panic(SegfaultError{Addr: a, Write: write})
	}
	pte := as.fault(vpn, as.pages.ref(vpn), write)
	as.charge(cost)
	if write {
		as.phys.WriteWord(pte.Frame, off, v)
		pte.widen(off, off+mem.WordSize)
	}
}

// Property — the one that lets a request replay its plan through the access
// loop a list at a time: TouchPages and WriteWords, and the same pages
// accessed by TouchPage and WriteWord one call each, are indistinguishable
// from the reference access applied page by page, whatever state the entries
// are in (not resident, write-protected by a clear, CoW shared with a store
// or a fork, TLB-cold in a fork child), under both trackers; and a list that
// runs into a hole or a write into a read-only region panics with the same
// SegfaultError after the same prefix.
func TestBatchedAccessMatchesSinglePageCalls(t *testing.T) {
	f := func(c accessCase) bool {
		off := 0 // a touch reads the page's first word
		if c.Write {
			off = accessOff(c.Off)
		}
		ref, vpns, release := accessTwin(t, c)
		defer release()
		want := trapped(func() {
			for _, vpn := range vpns {
				refAccess(ref, vpn, c.Write, off, c.V)
			}
		})
		if _, segv := want.(SegfaultError); (want != nil) != (c.Trap%3 == 0) || want != nil && !segv {
			t.Logf("reference panicked with %v, trap spliced in: %v", want, c.Trap%3 == 0)
			return false
		}

		for name, access := range map[string]func(*AddressSpace){
			"batched": func(as *AddressSpace) {
				if c.Write {
					as.WriteWords(vpns, off, c.V)
				} else {
					as.TouchPages(vpns)
				}
			},
			"single-page": func(as *AddressSpace) {
				for _, vpn := range vpns {
					if c.Write {
						as.WriteWord(PageAddr(vpn)+Addr(off), c.V)
					} else {
						as.TouchPage(vpn)
					}
				}
			},
		} {
			as, _, release := accessTwin(t, c)
			defer release()
			if got := trapped(func() { access(as) }); got != want {
				t.Logf("%s access panicked with %v, the reference with %v", name, got, want)
				return false
			}
			if !sameAccessState(t, as, ref) || as.CheckInvariants() != nil {
				t.Logf("%s access differs from the reference", name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedAccessSegfaultsAfterPrefix spells one trap out: the pages before
// the hole are written and charged, the pages after it are not.
func TestBatchedAccessSegfaultsAfterPrefix(t *testing.T) {
	as := accessSpace(t, false)
	as.SetMeter(sim.NewMeter())
	base := accessBase.PageNum()
	p := trapped(func() { as.WriteWords([]uint64{base, base + 9, base + 16, base + 1}, 8, 42) })
	if want := (SegfaultError{Addr: PageAddr(base+16) + 8, Write: true}); p != want {
		t.Fatalf("panic %v, want %v", p, want)
	}
	if got := as.AppendSoftDirtyVPNs(nil); !slices.Equal(got, []uint64{base, base + 9}) {
		t.Fatalf("written pages %x, want the two before the hole", got)
	}
	if got, want := as.Meter().Total(), 2*(accessCosts.MinorFault+accessCosts.WriteWord); got != want {
		t.Fatalf("charged %v, want %v", got, want)
	}
	if p := trapped(func() { as.TouchPages([]uint64{base + 14, base + 17}) }); p != (SegfaultError{Addr: PageAddr(base + 17)}) {
		t.Fatalf("read of the hole panicked with %v", p)
	}
}

// A sorted write list leaves the dirty log sorted, so reading the dirty set
// back does not sort it again.
func TestSortedWritesKeepDirtyLogSorted(t *testing.T) {
	as := accessSpace(t, false)
	base := accessBase.PageNum()
	as.ClearSoftDirty()
	as.WriteWords([]uint64{base + 1, base + 1, base + 9, base + 20}, 0, 1)
	if !as.dirty.sorted {
		t.Fatal("ascending writes left the dirty log unsorted")
	}
	as.WriteWords([]uint64{base + 3}, 0, 1)
	if as.dirty.sorted {
		t.Fatal("a write below the log's last page must mark it unsorted")
	}
	if got := as.AppendSoftDirtyVPNs(nil); !slices.Equal(got, []uint64{base + 1, base + 3, base + 9, base + 20}) {
		t.Fatalf("dirty set %x", got)
	}
}
