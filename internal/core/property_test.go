package core

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/vm"
)

// mutation is one step of an adversarial request trying to leave traces.
type mutation struct {
	Op   uint8
	A, B uint16
	V    uint64
}

// wordOff maps b onto the word offsets of a page, with the first and the
// last word (0 and 4088) drawn as often as all the others together: they are
// the ends of a soft-dirty extent.
func wordOff(b uint16) vm.Addr {
	switch b % 4 {
	case 0:
		return 0
	case 1:
		return mem.PageSize - mem.WordSize
	}
	return vm.Addr(b / 4 % 512 * mem.WordSize)
}

// applyMutations plays an arbitrary request against the process: heap
// writes at arbitrary word offsets (one page, or a batched list that crosses
// into the snapshot mapping), stack writes, register tampering, mmap/munmap,
// brk movement, madvise, mprotect, demand-faulting reads of the stack and the
// heap (one page or batched), mremap growth and moves (of request mappings
// and of the six-page snapshot mapping at snapMap), munmaps that bite into
// the snapshot mapping and file mappings placed over the range it left, and
// forked children that write. It returns the children still alive: they share
// the parent's frames, so a restore under them has to break copy-on-write
// inside its pokes.
func applyMutations(p *kernel.Process, snapMap vm.Addr, muts []mutation) (children []*vm.AddressSpace) {
	as := p.AS
	heap := as.HeapBase()
	snapRange := snapMap // where the snapshot recorded the mapping, wherever it moves
	heapPage := func(a uint16) (vm.Addr, bool) {
		brk, _ := as.Brk(0)
		if brk <= heap {
			return 0, false
		}
		return heap + vm.Addr(int(a)%int((brk-heap)/mem.PageSize)*mem.PageSize), true
	}
	// Writes are skipped if an earlier step unmapped the page or made it
	// read-only.
	writableIn := func(as *vm.AddressSpace, addr vm.Addr) bool {
		r, ok := as.FindVMA(addr)
		return ok && r.Prot&vm.ProtWrite != 0
	}
	writable := func(addr vm.Addr) bool { return writableIn(as, addr) }
	write := func(as *vm.AddressSpace, addr vm.Addr, v uint64) {
		if writableIn(as, addr) {
			as.WriteWord(addr, v)
		}
	}
	var mapped []vm.Addr
	for _, mu := range muts {
		switch mu.Op % numMutationOps {
		case 0: // heap write
			if page, ok := heapPage(mu.A); ok {
				write(as, page+wordOff(mu.B), mu.V)
			}
		case 1: // stack write
			as.WriteWord(vm.StackTop-vm.Addr(mu.A%2000)*8-8, mu.V)
		case 2: // register tampering
			th := p.Threads[int(mu.A)%len(p.Threads)]
			th.Regs.GP[int(mu.B)%len(th.Regs.GP)] = mu.V
		case 3: // new mapping, possibly written
			if a, err := as.Mmap((int(mu.A%6)+1)*mem.PageSize, vm.ProtRW, vm.KindAnon, "req"); err == nil {
				mapped = append(mapped, a)
				as.WriteWord(a+wordOff(mu.B), mu.V)
			}
		case 4: // unmap part of a request mapping
			if len(mapped) > 0 {
				a := mapped[int(mu.A)%len(mapped)]
				_ = as.Munmap(a, (int(mu.B%3)+1)*mem.PageSize)
			}
		case 5: // grow or shrink the heap
			delta := int(mu.A%64) * mem.PageSize
			if _, err := as.Brk(heap + vm.Addr(delta)); err != nil {
				return children
			}
		case 6: // madvise part of the heap away
			if page, ok := heapPage(mu.A); ok {
				_ = as.Madvise(page, (int(mu.B%3)+1)*mem.PageSize)
			}
		case 7: // mprotect a snapshot heap page read-only
			brk, _ := as.Brk(0)
			if brk > heap {
				_ = as.Mprotect(heap, mem.PageSize, vm.ProtRead)
			}
		case 8: // demand-fault a read-only touch of the stack
			as.TouchPage((vm.StackTop - vm.Addr(mu.A%1000+1)*mem.PageSize).PageNum())
		case 9: // read a heap page (faulting a zero frame in if it was dropped)
			if page, ok := heapPage(mu.A); ok {
				as.TouchPage(page.PageNum())
			}
		case 10: // write to the snapshot mapping, wherever it is now
			write(as, snapMap+vm.Addr(mu.A%6)*mem.PageSize+wordOff(mu.B), mu.V)
		case 11: // mremap: grow a request mapping, or the snapshot mapping (a move: it is boxed in)
			grow := (int(mu.B%4) + 1) * mem.PageSize
			if mu.A%2 == 1 && len(mapped) > 0 {
				// After a move of the snapshot mapping, or a munmap that bit
				// into it, this can grow into the range it left: a region
				// replaced by another at the same addresses.
				_, _ = as.Mremap(mapped[int(mu.A/2)%len(mapped)], mem.PageSize, mem.PageSize+grow)
			} else if got, err := as.Mremap(snapMap, 6*mem.PageSize, 6*mem.PageSize+grow); err == nil {
				snapMap = got
			}
		case 12: // a forked child that writes; half of them outlive the restore
			child := as.Fork()
			if page, ok := heapPage(mu.A); ok {
				write(child, page+wordOff(mu.B), mu.V)
			}
			if mu.A%2 == 0 {
				children = append(children, child)
			} else {
				child.Release()
			}
		case 13: // batched write: heap pages (duplicates as drawn) and the snapshot mapping, one offset
			var vpns []uint64
			for j := uint16(0); j <= mu.B%5; j++ {
				if page, ok := heapPage(mu.A + j*(mu.B%3)); ok && writable(page) {
					vpns = append(vpns, page.PageNum())
				}
			}
			if m := snapMap + vm.Addr(mu.A%6)*mem.PageSize; writable(m) {
				vpns = append(vpns, m.PageNum())
			}
			as.WriteWords(vpns, int(wordOff(mu.B)), mu.V)
		case 14: // batched read: heap pages (faulting dropped ones back in) and a stack page
			var vpns []uint64
			for j := uint16(0); j <= mu.B%5; j++ {
				if page, ok := heapPage(mu.A + j); ok {
					vpns = append(vpns, page.PageNum())
				}
			}
			as.TouchPages(append(vpns, (vm.StackTop - vm.Addr(mu.A%1000+1)*mem.PageSize).PageNum()))
		case 15: // unmap part of the snapshot mapping, wherever it is now
			_ = as.Munmap(snapMap+vm.Addr(mu.A%6)*mem.PageSize, (int(mu.B%3)+1)*mem.PageSize)
		case 16: // another region over part of the snapshot mapping's range, if free; read or written
			a := snapRange + vm.Addr(mu.A%6)*mem.PageSize
			if as.MmapFixed(a, (int(mu.B%2)+1)*mem.PageSize, vm.ProtRW, vm.KindFile, "req") == nil {
				if mu.V%2 == 0 {
					as.TouchPage(a.PageNum())
				} else {
					as.WriteWord(a+wordOff(mu.B), mu.V)
				}
			}
		}
	}
	return children
}

// numMutationOps is the number of request steps applyMutations knows.
const numMutationOps = 17

// ScratchCycle is the tail of a request whose scratch memory comes and goes: a
// one-page mapping is written and unmapped again, which leaves the layout as
// it was and one dropped page behind.
func ScratchCycle(t testing.TB, as *vm.AddressSpace) {
	t.Helper()
	scratch, err := as.Mmap(mem.PageSize, vm.ProtRW, vm.KindAnon, "scratch")
	if err != nil {
		t.Fatal(err)
	}
	as.WriteWord(scratch, 1)
	if err := as.Munmap(scratch, mem.PageSize); err != nil {
		t.Fatal(err)
	}
}

// MoveMapping is a request step that moves a mapping: a one-page mapping,
// boxed in from above by another, is written and grown by mremap to two
// pages, which has to move it. Both mappings are left for the restore to
// undo.
func MoveMapping(t testing.TB, as *vm.AddressSpace) {
	t.Helper()
	if _, err := as.Mmap(mem.PageSize, vm.ProtRW, vm.KindAnon, "box"); err != nil {
		t.Fatal(err)
	}
	a, err := as.Mmap(mem.PageSize, vm.ProtRW, vm.KindAnon, "moved")
	if err != nil {
		t.Fatal(err)
	}
	as.WriteWord(a, 1)
	if dst, err := as.Mremap(a, mem.PageSize, 2*mem.PageSize); err != nil || dst == a {
		t.Fatalf("mremap of a boxed-in mapping returned %v, %v; want a move", dst, err)
	}
}

// snapshotFixture spawns the process the restore properties run against and
// snapshots it: 32 heap pages, all but the last with content at both ends and
// in the middle of the page, and a six-page anonymous mapping (four pages
// written, one never touched) boxed in from above so that growing it moves
// it. The last heap page and the mapping's fifth were only read: resident and
// recorded, zero in the snapshot.
func snapshotFixture(t testing.TB, opts Options) (*kernel.Kernel, *Manager, vm.Addr) {
	t.Helper()
	k := kernel.New(kernel.Default())
	p, err := k.Spawn(kernel.ExecSpec{TextPages: 4, DataPages: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	as := p.AS
	heap := as.HeapBase()
	if _, err := as.Brk(heap + 32*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 31; i++ {
		page := heap + vm.Addr(i*mem.PageSize)
		as.WriteWord(page, 0xBEEF0000+uint64(i))
		as.WriteWord(page+2048, 0xFEED0000+uint64(i))
		as.WriteWord(page+mem.PageSize-mem.WordSize, 0xCAFE0000+uint64(i))
	}
	as.TouchPage(heap.PageNum() + 31)
	if _, err := as.Mmap(mem.PageSize, vm.ProtRW, vm.KindFile, "box"); err != nil {
		t.Fatal(err)
	}
	snapMap, err := as.Mmap(6*mem.PageSize, vm.ProtRW, vm.KindAnon, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		as.WriteWord(snapMap+vm.Addr(i*mem.PageSize)+64, 0xD00D0000+uint64(i))
	}
	as.TouchPage(snapMap.PageNum() + 4)
	m, err := NewManager(k, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TakeSnapshot(); err != nil {
		t.Fatal(err)
	}
	return k, m, snapMap
}

// Property: for ANY sequence of request-side mutations, Restore returns the
// process to a state indistinguishable from the snapshot — page content
// compared byte for byte by Verify — and keeps doing so over five
// consecutive requests on the same process, where each restore's partial
// copies rest on the extents and logs the previous restore's clear left
// behind. Run under both trackers and both stores, and on a manager cloned
// from a snapshot image, whose pages start out shared copy-on-write.
func TestRestoreUndoesArbitraryMutations(t *testing.T) {
	for _, tracker := range []TrackerKind{TrackSoftDirty, TrackUffd} {
		for _, store := range []StoreKind{StoreCopy, StoreCoW} {
			for _, clone := range []bool{false, true} {
				name := tracker.String() + "/" + store.String()
				if clone {
					if store == StoreCopy {
						continue // a clone's store is always the image's frames
					}
					name = tracker.String() + "/clone"
				}
				opts := Options{Tracker: tracker, Coalesce: true, Store: store}
				t.Run(name, func(t *testing.T) {
					f := func(requests [5][]mutation) bool {
						k, m, snapMap := snapshotFixture(t, opts)
						if clone {
							img, err := m.ExportImage(nil)
							if err != nil {
								t.Log(err)
								return false
							}
							defer img.Release()
							if m, err = NewManagerFromSnapshot(k, img, opts, nil); err != nil {
								t.Log(err)
								return false
							}
						}
						for i, muts := range requests {
							children := applyMutations(m.Process(), snapMap, muts)
							_, err := m.Restore()
							if err == nil {
								err = m.Verify()
							}
							for _, c := range children {
								c.Release()
							}
							if err != nil {
								t.Logf("request %d: %v", i, err)
								return false
							}
						}
						return true
					}
					if err := quick.Check(f, nil); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestRestoreExtentNeedsBornWholeAndReset is the arbitrary-mutation property
// cut down to the two rules the partial copy cannot do without. Every heap
// page of the fixture has content at three words. Request 1 rewrites one of
// them on page 0: the restore may copy eight bytes. Request 2 drops page 1
// and rewrites one word of the zero frame that faults in: were that frame's
// extent the word and not the page, the other two words would stay zero.
// And page 0, untouched by request 2, must not be restored again: were its
// extent not emptied by the clear that ended request 1, it would still look
// born-this-epoch to a restore that has drops to account for.
func TestRestoreExtentNeedsBornWholeAndReset(t *testing.T) {
	for _, tracker := range []TrackerKind{TrackSoftDirty, TrackUffd} {
		for _, store := range []StoreKind{StoreCopy, StoreCoW} {
			t.Run(tracker.String()+"/"+store.String(), func(t *testing.T) {
				_, m, _ := snapshotFixture(t, Options{Tracker: tracker, Coalesce: true, Store: store})
				as := m.Process().AS
				heap := as.HeapBase()
				restore := func(want int) {
					t.Helper()
					st, err := m.Restore()
					if err != nil {
						t.Fatal(err)
					}
					if err := m.Verify(); err != nil {
						t.Fatal(err)
					}
					if st.RestoredPages != want {
						t.Fatalf("restored %d pages, want %d", st.RestoredPages, want)
					}
				}

				as.WriteWord(heap+2048, 0xBAD)
				restore(1)

				if err := as.Madvise(heap+mem.PageSize, mem.PageSize); err != nil {
					t.Fatal(err)
				}
				as.WriteWord(heap+mem.PageSize+2048, 0xBAD)
				restore(1)
			})
		}
	}
}

// TestRestoreRefillsPagesDroppedThenRead: a snapshot page the request drops
// and then only reads is resident and clean, yet holds a zero frame — and so
// does one whose drop left the layout as it was (brk down and up again, a
// region unmapped and mapped back), which the layout gate cannot see, or
// left it with a different region over the same addresses, which a diff of
// ranges and protections cannot.
func TestRestoreRefillsPagesDroppedThenRead(t *testing.T) {
	drops := map[string]func(t *testing.T, as *vm.AddressSpace, snapMap vm.Addr){
		"madvise then read": func(t *testing.T, as *vm.AddressSpace, _ vm.Addr) {
			if err := as.Madvise(as.HeapBase(), mem.PageSize); err != nil {
				t.Fatal(err)
			}
			as.TouchPage(as.HeapBase().PageNum())
		},
		"brk down and up": func(t *testing.T, as *vm.AddressSpace, _ vm.Addr) {
			for _, pages := range []int{16, 32} {
				if _, err := as.Brk(as.HeapBase() + vm.Addr(pages*mem.PageSize)); err != nil {
					t.Fatal(err)
				}
			}
			as.TouchPage(as.HeapBase().PageNum() + 20)
		},
		"munmap and map back": func(t *testing.T, as *vm.AddressSpace, snapMap vm.Addr) {
			if err := as.Munmap(snapMap, 6*mem.PageSize); err != nil {
				t.Fatal(err)
			}
			if err := as.MmapFixed(snapMap, 6*mem.PageSize, vm.ProtRW, vm.KindAnon, ""); err != nil {
				t.Fatal(err)
			}
			as.TouchPage(snapMap.PageNum())
		},
		"munmap and another region in its place": func(t *testing.T, as *vm.AddressSpace, snapMap vm.Addr) {
			if err := as.Munmap(snapMap, 2*mem.PageSize); err != nil {
				t.Fatal(err)
			}
			if err := as.MmapFixed(snapMap, 2*mem.PageSize, vm.ProtRW, vm.KindFile, "req"); err != nil {
				t.Fatal(err)
			}
			as.TouchPage(snapMap.PageNum())
			as.WriteWord(snapMap+mem.PageSize+64, 0xBAD)
		},
	}
	for name, drop := range drops {
		for _, tracker := range []TrackerKind{TrackSoftDirty, TrackUffd} {
			for _, store := range []StoreKind{StoreCopy, StoreCoW} {
				t.Run(name+"/"+tracker.String()+"/"+store.String(), func(t *testing.T) {
					_, m, snapMap := snapshotFixture(t, Options{Tracker: tracker, Coalesce: true, Store: store})
					drop(t, m.Process().AS, snapMap)
					if _, err := m.Restore(); err != nil {
						t.Fatal(err)
					}
					if err := m.Verify(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// Property: Restore and the reference restore (exactRestore) are one restore.
// Twin managers on twin processes play the same random requests — every step
// applyMutations knows, mremap moves included — each ending in a
// ScratchCycle; one twin restores with Restore, the other with the reference.
// Every restore must report the same RestoreStats on both (page counts, Total
// and each phase, under either tracker) and both must verify clean, over five
// consecutive requests, trackers × stores.
func TestLoggedAndExactRestoreAgreeOnRandomRequests(t *testing.T) {
	for _, tracker := range []TrackerKind{TrackSoftDirty, TrackUffd} {
		for _, store := range []StoreKind{StoreCopy, StoreCoW} {
			opts := Options{Tracker: tracker, Coalesce: true, Store: store}
			t.Run(tracker.String()+"/"+store.String(), func(t *testing.T) {
				f := func(requests [5][]mutation) bool {
					var twins [2]*Manager // logged, exact
					var snapMap vm.Addr
					for i := range twins {
						_, twins[i], snapMap = snapshotFixture(t, opts)
					}
					for r, muts := range requests {
						var stats [2]RestoreStats
						for i, m := range twins {
							children := applyMutations(m.Process(), snapMap, muts)
							ScratchCycle(t, m.Process().AS)
							restore := m.Restore
							if i == 1 {
								restore = m.exactRestore
							}
							var err error
							if stats[i], err = restore(); err == nil {
								err = m.Verify()
							}
							for _, c := range children {
								c.Release()
							}
							if err != nil {
								t.Logf("request %d, twin %d: %v", r, i, err)
								return false
							}
						}
						if stats[0] != stats[1] {
							t.Logf("request %d: Restore reports\n%+v\nthe reference reports\n%+v", r, stats[0], stats[1])
							return false
						}
					}
					return true
				}
				if err := quick.Check(f, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestRestoreAfterDrops names every route by which a snapshot page loses the
// frame the snapshot saw — dropped and left alone, read back in, written, gone
// with its region, under another region, moved away by mremap — for a page
// with content and for one that was zero in the snapshot. Each restore must
// leave the process byte-identical to the snapshot and report the same
// RestoreStats as the reference restore of a twin that served the same
// request. A plain request afterwards restores as little as it wrote.
func TestRestoreAfterDrops(t *testing.T) {
	type target struct {
		page, snapMap vm.Addr
	}
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	routes := []struct {
		name      string
		inMapping bool // the page is the snapshot mapping's, not the heap's
		drop      func(t *testing.T, as *vm.AddressSpace, at target)
	}{
		{"madvised", false, func(t *testing.T, as *vm.AddressSpace, at target) {
			must(t, as.Madvise(at.page, mem.PageSize))
		}},
		{"madvised then read", false, func(t *testing.T, as *vm.AddressSpace, at target) {
			must(t, as.Madvise(at.page, mem.PageSize))
			as.TouchPage(at.page.PageNum())
		}},
		{"madvised then written", false, func(t *testing.T, as *vm.AddressSpace, at target) {
			must(t, as.Madvise(at.page, mem.PageSize))
			as.WriteWord(at.page+64, 0xBAD)
		}},
		{"region munmapped", true, func(t *testing.T, as *vm.AddressSpace, at target) {
			must(t, as.Munmap(at.snapMap, 6*mem.PageSize))
		}},
		{"region munmapped and another mapped over it", true, func(t *testing.T, as *vm.AddressSpace, at target) {
			must(t, as.Munmap(at.snapMap, 6*mem.PageSize))
			must(t, as.MmapFixed(at.snapMap, 6*mem.PageSize, vm.ProtRW, vm.KindFile, "req"))
			as.TouchPage(at.page.PageNum())
			as.TouchPage(at.snapMap.PageNum() + 5) // never resident before: only the restorer's munmap drops it
		}},
		{"above a brk shrink", false, func(t *testing.T, as *vm.AddressSpace, at target) {
			_, err := as.Brk(as.HeapBase() + 30*mem.PageSize)
			must(t, err)
		}},
		// The two that leave the layout as the snapshot recorded it, so the
		// restore has no diff to sweep and nothing but the log to go by.
		{"region munmapped and mapped back", true, func(t *testing.T, as *vm.AddressSpace, at target) {
			must(t, as.Munmap(at.snapMap, 6*mem.PageSize))
			must(t, as.MmapFixed(at.snapMap, 6*mem.PageSize, vm.ProtRW, vm.KindAnon, ""))
		}},
		{"above a brk shrink, grown back and read", false, func(t *testing.T, as *vm.AddressSpace, at target) {
			for _, pages := range []int{30, 32} {
				_, err := as.Brk(as.HeapBase() + vm.Addr(pages*mem.PageSize))
				must(t, err)
			}
			as.TouchPage(at.page.PageNum())
		}},
		// The mapping is boxed in from above, so growing it moves it: its
		// pages leave their numbers without a drop.
		{"mremap-moved away", true, func(t *testing.T, as *vm.AddressSpace, at target) {
			dst, err := as.Mremap(at.snapMap, 6*mem.PageSize, 7*mem.PageSize)
			must(t, err)
			if dst == at.snapMap {
				t.Fatal("the boxed-in snapshot mapping grew in place")
			}
		}},
		// The moved mapping lands just below the range it left, so growing
		// it again extends it in place over that range: an anonymous region
		// like the snapshot's covers it, and only the lost log says its
		// pages are not the snapshot's.
		{"moved, then grown back over its old range", true, func(t *testing.T, as *vm.AddressSpace, at target) {
			dst, err := as.Mremap(at.snapMap, 6*mem.PageSize, 7*mem.PageSize)
			must(t, err)
			if dst+7*mem.PageSize != at.snapMap {
				t.Fatalf("the mapping moved to %v, not just below %v", dst, at.snapMap)
			}
			if got, err := as.Mremap(dst, 7*mem.PageSize, 13*mem.PageSize); err != nil || got != dst {
				t.Fatalf("growing the moved mapping back returned %v, %v; want it in place", got, err)
			}
			as.TouchPage(at.page.PageNum())
		}},
	}
	for _, route := range routes {
		for _, zero := range []bool{false, true} {
			for _, tracker := range []TrackerKind{TrackSoftDirty, TrackUffd} {
				for _, store := range []StoreKind{StoreCopy, StoreCoW} {
					name := route.name + "/content/"
					if zero {
						name = route.name + "/zero/"
					}
					t.Run(name+tracker.String()+"/"+store.String(), func(t *testing.T) {
						var stats [2]RestoreStats // Restore, the reference
						for i := range stats {
							_, m, snapMap := snapshotFixture(t, Options{Tracker: tracker, Coalesce: true, Store: store})
							as := m.Process().AS
							// The fixture's last heap page and the mapping's
							// fifth are the zero ones; their lower neighbours
							// have content.
							at := target{page: as.HeapBase() + 30*mem.PageSize, snapMap: snapMap}
							if route.inMapping {
								at.page = snapMap + 3*mem.PageSize
							}
							if zero {
								at.page += mem.PageSize
							}
							if !m.snap.store.has(at.page.PageNum()) || m.snap.store.zeroAt(m.snap.store.index(at.page.PageNum()), m.kern.Phys) != zero {
								t.Fatalf("fixture: page %v is not a recorded page with zero=%v", at.page, zero)
							}
							route.drop(t, as, at)
							restore := m.Restore
							if i == 1 {
								restore = m.exactRestore
							}
							var err error
							if stats[i], err = restore(); err != nil {
								t.Fatal(err)
							}
							must(t, m.Verify())
							// plan reads the lost log after applyLayout. No store
							// page can show the order today — a region is only
							// replaced after a munmap that drops (and logs) its
							// pages — so it is held where it does show: a page
							// first faulted in under the impostor is dropped by
							// the restorer's munmap alone.
							if under := snapMap.PageNum() + 5; i == 0 && strings.HasSuffix(route.name, "mapped over it") && !slices.Contains(m.scratch.lost, under) {
								t.Fatalf("plan read the lost log %x before applyLayout unmapped the impostor over page %x", m.scratch.lost, under)
							}

							as.WriteWord(as.HeapBase()+3*mem.PageSize+8, 0xBAD)
							st, err := m.Restore()
							must(t, err)
							must(t, m.Verify())
							if st.RestoredPages != 1 || st.DroppedPages != 0 || st.LayoutOps != 0 {
								t.Fatalf("a one-word request after it restored %d, dropped %d pages in %d layout ops, want 1, 0, 0",
									st.RestoredPages, st.DroppedPages, st.LayoutOps)
							}
						}
						if stats[0] != stats[1] {
							t.Fatalf("Restore reports\n%+v\nthe reference reports\n%+v", stats[0], stats[1])
						}
					})
				}
			}
		}
	}
}

// Property: the dirty set reported by restore never under-approximates the
// pages a request wrote (soft-dirty completeness).
func TestDirtyTrackingCompleteness(t *testing.T) {
	f := func(writes []uint8) bool {
		k := kernel.New(kernel.Default())
		p, err := k.Spawn(kernel.ExecSpec{TextPages: 2, Threads: 1})
		if err != nil {
			return false
		}
		heap := p.AS.HeapBase()
		const pages = 64
		if _, err := p.AS.Brk(heap + pages*mem.PageSize); err != nil {
			return false
		}
		for i := 0; i < pages; i++ {
			p.AS.TouchPage(heap.PageNum() + uint64(i))
		}
		m, err := NewManager(k, p, DefaultOptions())
		if err != nil {
			return false
		}
		if _, err := m.TakeSnapshot(); err != nil {
			return false
		}
		written := map[uint64]bool{}
		for _, w := range writes {
			vpn := heap.PageNum() + uint64(w%pages)
			p.AS.WriteWord(vm.PageAddr(vpn), uint64(w)+1)
			written[vpn] = true
		}
		st, err := m.Restore()
		if err != nil {
			return false
		}
		// Every written page must have been found dirty and restored.
		return st.DirtyPages >= len(written) && st.RestoredPages >= len(written)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeated request/restore cycles never drift — Verify holds after
// every cycle and the physical frame count returns to its post-snapshot
// level (no leak across cycles).
func TestRepeatedCyclesDoNotDrift(t *testing.T) {
	k := kernel.New(kernel.Default())
	p, err := k.Spawn(kernel.ExecSpec{TextPages: 4, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	heap := p.AS.HeapBase()
	if _, err := p.AS.Brk(heap + 16*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), uint64(i))
	}
	m, err := NewManager(k, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TakeSnapshot(); err != nil {
		t.Fatal(err)
	}
	baselineFrames := k.Phys.InUse()
	for cycle := 0; cycle < 25; cycle++ {
		// A request that leaks memory on purpose (the logging(p) bug from
		// §5.3.1): it maps a region and never frees it.
		if _, err := p.AS.Mmap(4*mem.PageSize, vm.ProtRW, vm.KindAnon, "leak"); err != nil {
			t.Fatal(err)
		}
		p.AS.WriteWord(heap+vm.Addr(cycle%16)*mem.PageSize, 0xBAD)
		if _, err := m.Restore(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if k.Phys.InUse() > baselineFrames {
			t.Fatalf("cycle %d: leaked frames: %d > %d", cycle, k.Phys.InUse(), baselineFrames)
		}
	}
}
