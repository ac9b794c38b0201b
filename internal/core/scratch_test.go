package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/spare"
	"groundhog/internal/vm"
)

// scratchLists names every buffer of a restore scratch, for the ownership
// checks.
func scratchLists(sc *restoreScratch) map[string]any {
	return map[string]any{
		"layout": sc.layout, "pm": sc.pm, "dirty": sc.dirty, "present": sc.present,
		"lost": sc.lost, "fresh": sc.fresh, "restore": sc.restore, "runs": sc.runs,
		"cuts": sc.diff.cuts, "unmap": sc.diff.unmap, "remap": sc.diff.remap,
		"reprotect": sc.diff.reprotect,
	}
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

// checkSpentScratch reports what a scratch on the spare list, or arriving at
// a new manager, holds that it must not: a buffer of nonzero length, or a
// region name in any slot up to a region list's capacity.
func checkSpentScratch(sc *restoreScratch) error {
	for what, s := range scratchLists(sc) {
		if n := reflect.ValueOf(s).Len(); n != 0 {
			return fmt.Errorf("%s handed on at length %d", what, n)
		}
	}
	for _, s := range [][]vm.VMA{sc.layout, sc.diff.unmap, sc.diff.remap, sc.diff.reprotect} {
		for i, v := range s[:cap(s)] {
			if v.Name != "" {
				return fmt.Errorf("a handed-on region slot %d keeps the name %q", i, v.Name)
			}
		}
	}
	return nil
}

// checkScratch holds the scratch of the live managers and of the spare list
// to ownership: no backing array is held by two of them, every scratch on the
// spare list is spent, and every live manager's process holds its
// address-space invariants.
func checkScratch(live []*Manager) error {
	spares := peek(&spareScratch)
	owner := map[any]string{}
	hold := func(sc *restoreScratch, who string) error {
		for what, s := range scratchLists(sc) {
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
	for i := range spares {
		if err := checkSpentScratch(&spares[i]); err != nil {
			return fmt.Errorf("spare %d: %v", i, err)
		}
		if err := hold(&spares[i], fmt.Sprintf("spare %d", i)); err != nil {
			return err
		}
	}
	for i, m := range live {
		if err := hold(&m.scratch, fmt.Sprintf("manager %d", i)); err != nil {
			return err
		}
		if err := m.proc.AS.CheckInvariants(); err != nil {
			return fmt.Errorf("manager %d: %v", i, err)
		}
	}
	return nil
}

// TestScratchOnManyGoroutines: managers on two goroutines, each on a kernel
// of its own, are made for spawned processes (NewManager) and for clones
// (NewManagerFromSnapshot), serve requests that dirty pages, map a named
// region and unmap part of another, see their process forked and the child
// exit, and are released (some through a second holder), in a random order,
// so each new manager may start on the scratch either goroutine's last
// release passed on. Steps run concurrently; after each, with both goroutines
// stopped, the scratch is held to ownership (checkScratch). Besides, a new
// manager's scratch must arrive spent, every restore must verify, a released
// manager must keep none of its buffers, and each kernel's frames must all be
// back when its last process is gone. Under -race the run also holds the
// spare list's locking.
func TestScratchOnManyGoroutines(t *testing.T) {
	const workers, steps, most, heapPages = 2, 150, 4, 24
	var locks [workers]sync.Mutex
	var lives [workers][]*Manager
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
	var handedOn [workers]int
	arrived := func(w int, m *Manager) error {
		if cap(m.scratch.dirty) > 0 {
			handedOn[w]++
		}
		return checkSpentScratch(&m.scratch)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			k := kernel.New(kernel.Default())
			opts := DefaultOptions()
			if w == 1 {
				opts.Store = StoreCoW
			}
			live := &lives[w]
			step := func(s int) error {
				locks[w].Lock()
				defer locks[w].Unlock()
				op := rng.Intn(10)
				if len(*live) == most {
					op = 9
				}
				switch {
				case op < 3 || len(*live) == 0: // spawn a warm process and manage it
					p, err := k.Spawn(kernel.ExecSpec{TextPages: 4, DataPages: 4, Threads: 1})
					if err != nil {
						return err
					}
					heap := p.AS.HeapBase()
					if _, err := p.AS.Brk(heap + vm.Addr(heapPages*mem.PageSize)); err != nil {
						return err
					}
					for i := 0; i < heapPages; i += 1 + rng.Intn(3) {
						p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), uint64(s)<<8|uint64(i))
					}
					m, err := NewManager(k, p, opts)
					if err != nil {
						return err
					}
					if err := arrived(w, m); err != nil {
						return fmt.Errorf("spawn: %v", err)
					}
					if _, err := m.TakeSnapshot(); err != nil {
						return err
					}
					*live = append(*live, m)
				case op < 5: // clone a live manager's snapshot
					img, err := (*live)[rng.Intn(len(*live))].ExportImage(nil)
					if err != nil {
						return err
					}
					m, err := NewManagerFromSnapshot(k, img, opts, nil)
					img.Release()
					if err != nil {
						return err
					}
					if err := arrived(w, m); err != nil {
						return fmt.Errorf("clone: %v", err)
					}
					*live = append(*live, m)
				case op < 6: // fork the process, dirty the child, let it exit
					p := (*live)[rng.Intn(len(*live))].proc
					child, err := k.Fork(p, nil)
					if err != nil {
						return err
					}
					child.AS.WriteWord(child.AS.HeapBase(), uint64(s))
					k.Exit(child)
				case op < 8: // a request, then its restore: the data region loses a page
					m := (*live)[rng.Intn(len(*live))]
					as := m.proc.AS
					heap := as.HeapBase()
					for n := 1 + rng.Intn(heapPages); n > 0; n-- {
						as.WriteWord(heap+vm.Addr(rng.Intn(heapPages)*mem.PageSize), uint64(s))
					}
					a, err := as.Mmap(2*mem.PageSize, vm.ProtRW, vm.KindAnon, fmt.Sprintf("w%d-s%d", w, s))
					if err != nil {
						return err
					}
					as.WriteWord(a, uint64(s))
					data := vm.TextBase + 4*mem.PageSize
					if err := as.Munmap(data+vm.Addr(rng.Intn(3)*mem.PageSize), mem.PageSize); err != nil {
						return err
					}
					if _, err := m.Restore(); err != nil {
						return err
					}
					if err := m.Verify(); err != nil {
						return err
					}
				default: // exit, the manager released by its last holder
					i := rng.Intn(len(*live))
					m := (*live)[i]
					*live = slices.Delete(*live, i, i+1)
					holders := 1 + rng.Intn(2)
					for h := 1; h < holders; h++ {
						m.Retain()
					}
					k.Exit(m.proc)
					for h := 0; h < holders; h++ {
						m.Release()
					}
					for what, s := range scratchLists(&m.scratch) {
						if backingOf(s) != nil {
							return fmt.Errorf("exit: a released manager keeps its %s", what)
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
				if err := stopped(func() error { return checkScratch(append(slices.Clone(lives[0]), lives[1]...)) }); err != nil {
					t.Errorf("worker %d step %d: %v", w, s, err)
					return
				}
			}
			locks[w].Lock()
			defer locks[w].Unlock()
			for _, m := range *live {
				k.Exit(m.proc)
				m.Release()
			}
			*live = nil
			if handedOn[w] == 0 {
				t.Errorf("worker %d: no manager started on a handed-on scratch", w)
			}
			if n := k.Phys.InUse(); n != 0 {
				t.Errorf("worker %d: %d frames in use after every process exited", w, n)
			}
		}(w)
	}
	wg.Wait()
}
