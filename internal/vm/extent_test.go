package vm

import (
	"bytes"
	"maps"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"groundhog/internal/mem"
)

// The soft-dirty extent's storage is the PTE's former padding: growing the
// entry would grow every page-table chunk of every address space.
func TestExtentLeavesPTESizeAlone(t *testing.T) {
	if got := unsafe.Sizeof(PTE{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(PTE{}) = %d, want 16", got)
	}
}

// extentSpace is runTestSpace after a ClearSoftDirty: every page of the
// region resident with one word of content, extents empty, both logs armed.
func extentSpace(t *testing.T, pages int) (*AddressSpace, uint64) {
	t.Helper()
	as := runTestSpace(t, pages)
	base := Addr(0x100000).PageNum()
	for i := 0; i < pages; i++ {
		as.WriteWord(PageAddr(base+uint64(i))+512, 0xC0DE)
	}
	as.ClearSoftDirty()
	return as, base
}

func wantExtent(t *testing.T, as *AddressSpace, vpn uint64, lo, hi int) {
	t.Helper()
	pte, ok := as.PTEAt(vpn)
	if !ok {
		t.Fatalf("page %#x not resident", vpn)
	}
	if gotLo, gotHi := pte.extent(); gotLo != lo || gotHi != hi {
		t.Fatalf("page %#x extent = [%d,%d), want [%d,%d)", vpn, gotLo, gotHi, lo, hi)
	}
}

func TestExtentFollowsWrites(t *testing.T) {
	as, base := extentSpace(t, 4)
	wantExtent(t, as, base, 0, 0)

	as.WriteWord(PageAddr(base)+64, 1)
	wantExtent(t, as, base, 64, 72)
	as.WriteWord(PageAddr(base)+2048, 2)
	wantExtent(t, as, base, 64, 2056)

	// Descending writes widen downwards.
	as.WriteWord(PageAddr(base+1)+4088, 3)
	wantExtent(t, as, base+1, 4088, mem.PageSize)
	as.WriteWord(PageAddr(base+1)+8, 4)
	wantExtent(t, as, base+1, 8, mem.PageSize)
	as.WriteWord(PageAddr(base+1), 5)
	wantExtent(t, as, base+1, 0, mem.PageSize)

	// A write inside the extent, and reads, leave it alone.
	as.WriteWord(PageAddr(base)+128, 6)
	as.ReadWord(PageAddr(base) + 3000)
	as.TouchPage(base + 2)
	wantExtent(t, as, base, 64, 2056)
	wantExtent(t, as, base+2, 0, 0)
}

// A page that gets its frame during the epoch carries the whole page: no
// byte of the new frame is known to equal what the page held before.
func TestExtentWholeOnEveryBirthPath(t *testing.T) {
	t.Run("demand-zero read fault", func(t *testing.T) {
		as, base := extentSpace(t, 2)
		as.DropPage(base)
		as.TouchPage(base)
		wantExtent(t, as, base, 0, mem.PageSize)
		if pte, _ := as.PTEAt(base); pte.SoftDirty {
			t.Fatal("a read fault set the soft-dirty bit")
		}
	})
	t.Run("demand-zero write fault", func(t *testing.T) {
		as, base := extentSpace(t, 2)
		as.DropPage(base)
		as.WriteWord(PageAddr(base)+64, 1)
		wantExtent(t, as, base, 0, mem.PageSize)
	})
	t.Run("poke of a non-resident page", func(t *testing.T) {
		for _, poke := range []func(as *AddressSpace, vpn uint64){
			func(as *AddressSpace, vpn uint64) { as.pokePage(vpn, nil) },
			func(as *AddressSpace, vpn uint64) { as.PokePageRun(vpn, pageRun(1, nil)) },
			func(as *AddressSpace, vpn uint64) {
				f := as.Phys().Alloc()
				defer as.Phys().Unref(f)
				as.PokeFrameRun(vpn, []mem.FrameID{f})
			},
		} {
			as, base := extentSpace(t, 2)
			as.DropPage(base)
			poke(as, base)
			wantExtent(t, as, base, 0, mem.PageSize)
		}
	})
	t.Run("MapFrameCoW", func(t *testing.T) {
		as := runTestSpace(t, 2)
		as.ClearSoftDirty()
		f := as.Phys().Alloc()
		base := Addr(0x100000).PageNum()
		if err := as.MapFrameCoW(base, f); err != nil {
			t.Fatal(err)
		}
		wantExtent(t, as, base, 0, mem.PageSize)
	})
	t.Run("CoW break inside a poke", func(t *testing.T) {
		as, base := extentSpace(t, 2)
		as.WriteWord(PageAddr(base)+64, 1)
		child := as.Fork() // the page is now shared
		defer child.Release()
		data := make([]byte, mem.PageSize)
		data[0] = 0x42
		as.PokePageRun(base, pageRun(1, data))
		wantExtent(t, as, base, 0, mem.PageSize)
		if got := as.ReadWord(PageAddr(base)); got != 0x42 {
			t.Fatalf("poke through a CoW break copied %#x, want the whole source page", got)
		}
		if got := child.ReadWord(PageAddr(base) + 64); got != 1 {
			t.Fatalf("child saw the parent's poke: %#x", got)
		}
	})
	t.Run("CoW break inside a write fault keeps the extent", func(t *testing.T) {
		as, base := extentSpace(t, 2)
		child := as.Fork()
		defer child.Release()
		as.WriteWord(PageAddr(base)+64, 1) // clones the frame: same bytes
		wantExtent(t, as, base, 64, 72)
	})
}

// Both ClearSoftDirty paths — the page-table walk of the first clear and the
// logged one of every later clear — empty every extent, however it came to
// be: a drop and an mremap move are logged, so the logged clear finds their
// pages too.
func TestExtentEmptiedByClearSoftDirty(t *testing.T) {
	dirtyAll := func(as *AddressSpace, base uint64) *AddressSpace {
		as.WriteWord(PageAddr(base)+64, 1) // written
		as.DropPage(base + 1)              // born by a read...
		as.TouchPage(base + 1)
		as.DropPage(base + 2) // ...by a poke
		as.PokePageRun(base+2, pageRun(1, nil))
		as.WriteWord(PageAddr(base+3)+8, 2) // CoW-broken by a poke
		child := as.Fork()
		as.PokePageRun(base+3, pageRun(1, nil))
		return child
	}
	check := func(t *testing.T, as *AddressSpace, base uint64) {
		t.Helper()
		for i := uint64(0); i < 4; i++ {
			wantExtent(t, as, base+i, 0, 0)
			if pte, _ := as.PTEAt(base + i); pte.SoftDirty {
				t.Fatalf("page %d still soft-dirty", i)
			}
		}
	}
	t.Run("walk", func(t *testing.T) {
		// No clear yet: the first one walks the page table.
		as := runTestSpace(t, 4)
		base := Addr(0x100000).PageNum()
		for i := uint64(0); i < 4; i++ {
			as.WriteWord(PageAddr(base+i)+512, 0xC0DE)
		}
		defer dirtyAll(as, base).Release()
		if as.dirty.armed {
			t.Fatal("an epoch started without a clear; this case must take the walk")
		}
		as.ClearSoftDirty()
		check(t, as, base)
	})
	t.Run("logged after a move", func(t *testing.T) {
		as, base := extentSpace(t, 4)
		defer dirtyAll(as, base).Release()
		// A differently-named neighbor blocks in-place growth, so the four
		// pages move, and arrive with whole-page extents.
		if err := as.MmapFixed(PageAddr(base+4), mem.PageSize, ProtRW, KindAnon, "blocker"); err != nil {
			t.Fatal(err)
		}
		dst, err := as.Mremap(PageAddr(base), 4*mem.PageSize, 5*mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if dst == PageAddr(base) {
			t.Fatal("mremap did not move despite the blocking neighbor")
		}
		as.ClearSoftDirty()
		check(t, as, dst.PageNum())
	})
	t.Run("logged after a drop", func(t *testing.T) {
		as, base := extentSpace(t, 4)
		defer dirtyAll(as, base).Release()
		if got := as.AppendLostVPNs(nil); !slices.Equal(got, []uint64{base + 1, base + 2}) {
			t.Fatalf("lost log reads %x, want the two dropped pages", got)
		}
		as.ClearSoftDirty()
		check(t, as, base)
		if got := as.AppendLostVPNs(nil); len(got) != 0 {
			t.Fatalf("lost log reads %x after the clear", got)
		}
	})
	t.Run("logged", func(t *testing.T) {
		as, base := extentSpace(t, 4)
		child := dirtyAll(as, base)
		defer child.Release()
		as.ClearSoftDirty() // re-arms both logs; pages 1 and 2 stay resident
		as.WriteWord(PageAddr(base)+64, 1)
		as.WriteWord(PageAddr(base+3)+8, 2) // CoW fault against the child
		grand := as.Fork()
		defer grand.Release()
		as.PokePageRun(base+3, pageRun(1, nil)) // whole again, by a poke's CoW break
		as.PokePageRun(base+1, pageRun(1, nil)) // clean shared page: whole by the poke alone
		wantExtent(t, as, base+1, 0, mem.PageSize)
		as.ClearSoftDirty()
		check(t, as, base)
	})
}

func TestExtentCarriedByForkAndMremapMove(t *testing.T) {
	as, base := extentSpace(t, 2)
	as.WriteWord(PageAddr(base)+64, 1)
	child := as.Fork()
	defer child.Release()
	wantExtent(t, child, base, 64, 72)
	wantExtent(t, child, base+1, 0, 0)
	child.WriteWord(PageAddr(base)+8, 2)
	wantExtent(t, child, base, 8, 72)
	wantExtent(t, as, base, 64, 72) // the parent's entry is its own

	// A differently-named neighbor blocks in-place growth without merging.
	if err := as.MmapFixed(0x100000+2*mem.PageSize, mem.PageSize, ProtRW, KindAnon, "blocker"); err != nil {
		t.Fatal(err)
	}
	dst, err := as.Mremap(0x100000, 2*mem.PageSize, 4*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if dst == 0x100000 {
		t.Fatal("mremap did not move despite the blocking neighbor")
	}
	// A move is not carried: the bytes outside [64, 72) equal what the old
	// address held at the clear, which says nothing of the new one.
	wantExtent(t, as, dst.PageNum(), 0, mem.PageSize)
	wantExtent(t, as, dst.PageNum()+1, 0, mem.PageSize)
}

// extentOp is one step of TestExtentBoundsEveryWrittenByte.
type extentOp struct {
	Op   uint8
	Page uint8
	Off  uint16
	V    uint64
}

// Property — the one the restore's partial copy rests on: at every moment,
// every byte of a resident page outside its soft-dirty extent equals what
// the page held at the last ClearSoftDirty; a page that was not resident
// then carries the whole page; and rolling a page back with PokePageRun
// makes it equal to those contents in full. Checked after every step of a
// random sequence of writes and reads (one page or a batched list), drops,
// clears (the first walking, the rest logged), forks, mremap growth and
// moves, under both trackers; a move is a birth at the new page numbers.
// Beside it, once the first clear has started an epoch, the three logs are
// held to plain models: the resident list and the dirty log to the regions'
// pagemap entries, the lost log to a map of the pages whose frame was
// released or moved away since the last clear.
func TestExtentBoundsEveryWrittenByte(t *testing.T) {
	const maxPages = 12
	f := func(uffd bool, ops []extentOp) bool {
		as := New(mem.New(), Costs{})
		as.SetUffdTracking(uffd)
		if _, err := as.Mmap(mem.PageSize, ProtRW, KindAnon, "blocker"); err != nil {
			return false
		}
		start, err := as.Mmap(4*mem.PageSize, ProtRW, KindAnon, "")
		if err != nil {
			return false
		}
		pages := 4
		var children []*AddressSpace
		defer func() {
			for _, c := range children {
				c.Release()
			}
		}()

		// atClear[i] is page i's contents at the last clear; absent if the
		// page was not resident then (or there has been no clear yet).
		atClear := map[int][]byte{}
		// lost holds the pages whose frame was released or moved away since
		// the last clear, whatever became of them afterwards.
		lost := map[uint64]bool{}
		epoch := false // a clear has run
		content := func(i int) []byte {
			if b := as.PeekPage(start.PageNum() + uint64(i)); b != nil {
				return b
			}
			return make([]byte, mem.PageSize)
		}
		holds := func(step int) bool {
			for i := 0; i < pages; i++ {
				pte, ok := as.PTEAt(start.PageNum() + uint64(i))
				if !ok {
					continue
				}
				lo, hi := pte.extent()
				if pte.SoftDirty && hi == lo {
					t.Logf("step %d: page %d soft-dirty with an empty extent", step, i)
					return false
				}
				old, known := atClear[i]
				if !known {
					if lo != 0 || hi != mem.PageSize {
						t.Logf("step %d: page %d born this epoch with extent [%d,%d)", step, i, lo, hi)
						return false
					}
					continue
				}
				cur := content(i)
				if !bytes.Equal(cur[:lo], old[:lo]) || !bytes.Equal(cur[hi:], old[hi:]) {
					t.Logf("step %d: page %d differs from its contents at the last clear outside [%d,%d)", step, i, lo, hi)
					return false
				}
			}
			// The slow restore trusts the indexes instead of reading each
			// region's pagemap: the resident list must be the regions'
			// pagemap entries laid end to end, and the dirty log, while
			// armed, exactly the entries whose soft-dirty bit is set.
			var resident, dirty []uint64
			for _, v := range as.VMAs() {
				for _, e := range as.AppendPagemapRange(v.Start.PageNum(), v.End.PageNum(), nil) {
					resident = append(resident, e.VPN)
					if pte, _ := as.PTEAt(e.VPN); pte.SoftDirty {
						dirty = append(dirty, e.VPN)
					}
				}
			}
			if got := as.AppendResidentVPNs(nil); !slices.Equal(got, resident) {
				t.Logf("step %d: resident list %x, pagemap of the regions %x", step, got, resident)
				return false
			}
			if got := as.AppendSoftDirtyVPNs(nil); !slices.Equal(got, dirty) {
				t.Logf("step %d: dirty log reads %x, PTE soft-dirty bits %x", step, got, dirty)
				return false
			}
			if epoch {
				if got, want := as.AppendLostVPNs(nil), slices.Sorted(maps.Keys(lost)); !slices.Equal(got, want) {
					t.Logf("step %d: lost log reads %x, frames were released from %x", step, got, want)
					return false
				}
			}
			return true
		}

		for step, op := range ops {
			i := int(op.Page) % pages
			vpn := start.PageNum() + uint64(i)
			switch op.Op % 11 {
			case 0, 1, 2: // word write; offsets 0 and 4088 included
				as.WriteWord(PageAddr(vpn)+Addr(op.Off%512*8), op.V)
			case 3:
				as.TouchPage(vpn)
			case 4: // drop: the page alone, or an madvise over it and its neighbour
				n := uint64(1 + op.Off%2)
				for v := vpn; v < vpn+n; v++ {
					if _, ok := as.PTEAt(v); ok {
						lost[v] = true
					}
				}
				if n == 1 {
					as.DropPage(vpn)
				} else if err := as.Madvise(PageAddr(vpn), int(n)*mem.PageSize); err != nil {
					return false
				}
			case 5: // new epoch
				as.ClearSoftDirty()
				epoch = true
				clear(atClear)
				clear(lost)
				for j := 0; j < pages; j++ {
					pte, ok := as.PTEAt(start.PageNum() + uint64(j))
					if !ok {
						continue
					}
					if lo, hi := pte.extent(); lo != 0 || hi != 0 || pte.SoftDirty {
						t.Logf("step %d: page %d not reset by ClearSoftDirty", step, j)
						return false
					}
					atClear[j] = content(j)
				}
			case 6: // a child that shares every frame, and writes
				if len(children) < 3 {
					c := as.Fork()
					c.WriteWord(PageAddr(vpn)+Addr(op.Off%512*8), op.V)
					children = append(children, c)
				}
			case 7: // grow by a page: in place when free above, else a move
				if pages < maxPages {
					got, err := as.Mremap(start, pages*mem.PageSize, (pages+1)*mem.PageSize)
					if err != nil {
						t.Logf("step %d: mremap: %v", step, err)
						return false
					}
					if got != start {
						// The resident pages left their numbers, and no page
						// at the new ones was resident at the clear.
						for j := 0; j < pages; j++ {
							if _, ok := as.PTEAt(got.PageNum() + uint64(j)); ok {
								lost[start.PageNum()+uint64(j)] = true
							}
						}
						clear(atClear)
					}
					start, pages = got, pages+1
				}
			case 8: // the restorer's write
				old, known := atClear[i]
				if _, ok := as.PTEAt(vpn); !ok || !known {
					break
				}
				as.PokePageRun(vpn, pageRun(1, old))
				if !bytes.Equal(content(i), old) {
					t.Logf("step %d: page %d differs from the poked contents after PokePageRun", step, i)
					return false
				}
			case 9: // batched write: a list with a duplicate, one offset for all
				other := start.PageNum() + op.V%uint64(pages)
				as.WriteWords([]uint64{vpn, other, vpn}, int(op.Off%512*8), op.V)
			case 10: // batched read
				as.TouchPages([]uint64{vpn, start.PageNum() + op.V%uint64(pages)})
			}
			if !holds(step) {
				return false
			}
		}
		return as.CheckInvariants() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
