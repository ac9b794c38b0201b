package core

import (
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
// and of the six-page snapshot mapping at snapMap), and forked children that
// write. It returns the children still alive: they share the parent's
// frames, so a restore under them has to break copy-on-write inside its
// pokes.
func applyMutations(p *kernel.Process, snapMap vm.Addr, muts []mutation) (children []*vm.AddressSpace) {
	as := p.AS
	heap := as.HeapBase()
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
		switch mu.Op % 15 {
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
		}
	}
	return children
}

// snapshotFixture spawns the process the restore properties run against and
// snapshots it: 32 heap pages with content at both ends and in the middle of
// every page, and a six-page anonymous mapping (four pages written, two
// never touched) boxed in from above so that growing it moves it.
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
	for i := 0; i < 32; i++ {
		page := heap + vm.Addr(i*mem.PageSize)
		as.WriteWord(page, 0xBEEF0000+uint64(i))
		as.WriteWord(page+2048, 0xFEED0000+uint64(i))
		as.WriteWord(page+mem.PageSize-mem.WordSize, 0xCAFE0000+uint64(i))
	}
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
