package vm

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"groundhog/internal/mem"
	"groundhog/internal/spare"
)

// bookSlices names every list of a set of books, for the ownership checks.
func bookSlices(b books) map[string]any {
	return map[string]any{
		"vmas": b.vmas, "carved": b.carved, "chunks": b.chunks,
		"dirty log": b.dirty.vpns, "fresh log": b.fresh.vpns, "lost log": b.lost.vpns,
	}
}

// booksOf returns the books an address space holds now.
func booksOf(as *AddressSpace) books {
	return books{as.vmas, as.carved, as.pages.chunks, as.dirty, as.fresh, as.lost}
}

// backingOf returns the first element of a list's backing array, nil if it
// has none: two lists share an array iff their backings are equal.
func backingOf(s any) any {
	v := reflect.ValueOf(s)
	if v.Cap() == 0 {
		return nil
	}
	return v.Slice(0, 1).Index(0).Addr().Interface()
}

// peek returns what l holds, bottom first, and leaves it as it was. Call it
// while no other goroutine uses l.
func peek[T any](l *spare.List[T]) []T {
	var vs []T
	for v, ok := l.Take(); ok; v, ok = l.Take() {
		vs = append(vs, v)
	}
	slices.Reverse(vs)
	l.Put(vs...)
	return vs
}

// checkSpent reports what a set of books on the spare list, or arriving at a
// new address space, holds that it must not: a list of nonzero length, a
// region name or a chunk in any slot up to a list's capacity, an armed log.
func checkSpent(b books) error {
	for what, s := range bookSlices(b) {
		if n := reflect.ValueOf(s).Len(); n != 0 {
			return fmt.Errorf("%s handed on at length %d", what, n)
		}
	}
	for _, l := range []epochLog{b.dirty, b.fresh, b.lost} {
		if l.armed {
			return fmt.Errorf("a log handed on armed")
		}
	}
	for _, s := range [][]VMA{b.vmas, b.carved} {
		for i, v := range s[:cap(s)] {
			if v.Name != "" {
				return fmt.Errorf("a handed-on region slot %d keeps the name %q", i, v.Name)
			}
		}
	}
	for i, c := range b.chunks[:cap(b.chunks)] {
		if c != nil {
			return fmt.Errorf("a handed-on chunk-list slot %d keeps a chunk", i)
		}
	}
	return nil
}

// checkBooks holds the books of the live address spaces and of the spare
// list to ownership: no backing array is held by two of them, every set on
// the spare list is spent (checkSpent), and every live address space holds
// its invariants.
func checkBooks(live []*AddressSpace) error {
	spares := peek(&spareBooks)
	owner := map[any]string{}
	hold := func(b books, who string) error {
		for what, s := range bookSlices(b) {
			a := backingOf(s)
			if a == nil {
				continue
			}
			if prev, dup := owner[a]; dup {
				return fmt.Errorf("%s's %s shares its backing array with %s", who, what, prev)
			}
			owner[a] = who + "'s " + what
		}
		return nil
	}
	for i, b := range spares {
		if err := checkSpent(b); err != nil {
			return fmt.Errorf("spare %d: %v", i, err)
		}
		if err := hold(b, fmt.Sprintf("spare %d", i)); err != nil {
			return err
		}
	}
	for i, as := range live {
		if err := hold(booksOf(as), fmt.Sprintf("address space %d", i)); err != nil {
			return err
		}
		if err := as.CheckInvariants(); err != nil {
			return fmt.Errorf("address space %d: %v", i, err)
		}
	}
	return nil
}

// TestBooksOnManyGoroutines: address spaces on two goroutines, each on a
// PhysMem of its own, are spawned, cloned (NewFromLayout), forked, used and
// retired in a random order, so each new one may start on the books either
// goroutine's last retirement passed on. Steps run concurrently; after each,
// with both goroutines stopped, the books are held to ownership
// (checkBooks). Besides, a new address space's books must arrive spent, a
// warm-up before its first ClearSoftDirty must leave its logs empty, and a
// retired address space must keep none of its lists. Under -race the run
// also holds the spare list's locking.
func TestBooksOnManyGoroutines(t *testing.T) {
	const workers, steps, most = 2, 200, 6 // most: live address spaces per worker
	const pages = chunkPages + 64          // the main region spans two chunks
	base := Addr(0x10000000)
	var locks [workers]sync.Mutex
	var lives [workers][]*AddressSpace
	// stopped runs fn with every worker stopped between two steps.
	stopped := func(fn func() error) error {
		for i := range locks {
			locks[i].Lock()
		}
		defer func() {
			for i := range locks {
				locks[i].Unlock()
			}
		}()
		return fn()
	}
	// arrived checks a new address space's books: the regions and chunks its
	// constructor put in are its own, every other slot must be spent.
	var handedOn [workers]int
	arrived := func(w int, as *AddressSpace) error {
		if cap(as.dirty.vpns) > 0 {
			handedOn[w]++
		}
		b := booksOf(as)
		b.vmas, b.chunks = b.vmas[len(b.vmas):], b.chunks[len(b.chunks):]
		return checkSpent(b)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			phys := mem.New()
			live := &lives[w]
			step := func(s int) error {
				locks[w].Lock()
				defer locks[w].Unlock()
				name := fmt.Sprintf("w%d-s%d", w, s)
				op := rng.Intn(10)
				if len(*live) == most {
					op = 9
				}
				switch {
				case op < 3 || len(*live) == 0: // spawn
					as := New(phys, Costs{})
					if err := arrived(w, as); err != nil {
						return fmt.Errorf("spawn: %v", err)
					}
					if err := as.MmapFixed(base, pages*mem.PageSize, ProtRW, KindAnon, name); err != nil {
						return err
					}
					for n := 1 + rng.Intn(pages/4); n > 0; n-- {
						as.WriteWord(base+Addr(rng.Intn(pages)*mem.PageSize), uint64(s))
					}
					if n := len(as.dirty.vpns) + len(as.fresh.vpns) + len(as.lost.vpns); n != 0 {
						return fmt.Errorf("spawn: the warm-up filled the logs with %d pages", n)
					}
					as.ClearSoftDirty()
					*live = append(*live, as)
				case op < 5: // clone the layout and frames of a live one
					src := (*live)[rng.Intn(len(*live))]
					as, err := NewFromLayout(phys, Costs{}, src.VMAs(), src.HeapBase(), src.BrkValue(), src.MmapBase())
					if err != nil {
						return err
					}
					if err := arrived(w, as); err != nil {
						return fmt.Errorf("clone: %v", err)
					}
					for _, vpn := range src.ResidentVPNs() {
						pte, _ := src.PTEAt(vpn)
						if err := as.MapFrameCoW(vpn, pte.Frame); err != nil {
							return err
						}
					}
					if n := len(as.fresh.vpns); n != 0 {
						return fmt.Errorf("clone: mapping the image logged %d fresh pages before the first epoch", n)
					}
					as.ClearSoftDirty()
					*live = append(*live, as)
				case op < 6: // fork
					child := (*live)[rng.Intn(len(*live))].Fork()
					if err := arrived(w, child); err != nil {
						return fmt.Errorf("fork: %v", err)
					}
					*live = append(*live, child)
				case op < 8: // a request: dirty pages, map a named region, unmap part of another
					as := (*live)[rng.Intn(len(*live))]
					as.ClearSoftDirty() // the epoch stays open: the next exit may come mid-request
					for n := 1 + rng.Intn(32); n > 0; n-- {
						as.WriteWord(base+Addr(rng.Intn(pages)*mem.PageSize), uint64(s))
					}
					a, err := as.Mmap(4*mem.PageSize, ProtRW, KindAnon, name)
					if err != nil {
						return err
					}
					as.WriteWord(a, uint64(s))
					off := Addr(rng.Intn(pages-8) * mem.PageSize)
					if err := as.Munmap(base+off, 8*mem.PageSize); err != nil {
						return err
					}
					if err := as.MmapFixed(base+off, 8*mem.PageSize, ProtRW, KindAnon, name); err != nil {
						return err
					}
				default: // exit
					i := rng.Intn(len(*live))
					as := (*live)[i]
					*live = slices.Delete(*live, i, i+1)
					as.Retire()
					for what, s := range bookSlices(booksOf(as)) {
						if backingOf(s) != nil {
							return fmt.Errorf("exit: a retired address space keeps its %s", what)
						}
					}
				}
				return nil
			}
			for s := 0; s < steps; s++ {
				if err := step(s); err != nil {
					t.Errorf("worker %d step %d: %v", w, s, err)
					return
				}
				if err := stopped(func() error { return checkBooks(append(slices.Clone(lives[0]), lives[1]...)) }); err != nil {
					t.Errorf("worker %d step %d: %v", w, s, err)
					return
				}
			}
			locks[w].Lock()
			defer locks[w].Unlock()
			for _, as := range *live {
				as.Retire()
			}
			*live = nil
			if handedOn[w] == 0 {
				t.Errorf("worker %d: no address space started on handed-on books", w)
			}
			if phys.InUse() != 0 {
				t.Errorf("worker %d: %d frames in use after every address space retired", w, phys.InUse())
			}
		}(w)
	}
	wg.Wait()
}
