package vm

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"groundhog/internal/mem"
)

// TestChunkPoolOnManyGoroutines: every address space in the process draws its
// page-table chunks from one pool, whatever physical memory it sits on, and
// the live server runs its deployments on distinct goroutines. Four
// goroutines, each with its own PhysMem (a kernel's), spawn address spaces,
// dirty pages across several chunks with a word of their own, fork some,
// check them and release them all, round after round, so each round maps its
// pages into chunks any goroutine may have released. A page must read what
// its own goroutine wrote there, or zero, and every table must hold its
// invariants (no stale entry among its absent slots); under -race the run
// also holds the pool's hand-offs.
func TestChunkPoolOnManyGoroutines(t *testing.T) {
	const workers, rounds, spaces = 4, 20, 3
	const pages = 3 * chunkPages // a region spanning several chunks
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			phys := mem.New()
			mark := 0x0101010101010101 * uint64(w+1)
			for r := 0; r < rounds; r++ {
				var live []*AddressSpace
				for s := 0; s < spaces; s++ {
					as := New(phys, Costs{})
					base := Addr(0x10000000)
					if err := as.MmapFixed(base, pages*mem.PageSize, ProtRW, KindAnon, ""); err != nil {
						t.Error(err)
						return
					}
					written := map[uint64]bool{}
					for n := rng.Intn(pages); n > 0; n-- {
						vpn := base.PageNum() + uint64(rng.Intn(pages))
						as.WriteWord(PageAddr(vpn), mark)
						written[vpn] = true
					}
					if rng.Intn(2) == 0 {
						if vpn := base.PageNum() + uint64(rng.Intn(pages)); !written[vpn] {
							as.TouchPage(vpn)
						}
					}
					made := len(live)
					live = append(live, as)
					if rng.Intn(3) == 0 {
						live = append(live, as.Fork())
					}
					for _, x := range live[made:] {
						for i := 0; i < pages; i++ {
							vpn := base.PageNum() + uint64(i)
							want := uint64(0)
							if written[vpn] {
								want = mark
							}
							if got := x.ReadWord(PageAddr(vpn)); got != want {
								t.Errorf("worker %d round %d: page %d reads %#x, want %#x", w, r, i, got, want)
								return
							}
						}
						if err := x.CheckInvariants(); err != nil {
							t.Errorf("worker %d round %d: %v", w, r, err)
							return
						}
					}
				}
				for _, as := range live {
					as.Release()
				}
				if phys.InUse() != 0 {
					t.Errorf("worker %d round %d: %d frames in use after every release", w, r, phys.InUse())
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestChunksOutliveCollections: the chunks an exiting process's page table
// gives back are still there for the next one after the collector has run —
// twice, which empties a sync.Pool. An address space maps a span of several
// chunks, writes a word to each, and is released; after two collections the
// same span, mapped and written again, allocates nothing.
func TestChunksOutliveCollections(t *testing.T) {
	const pages = 3 * chunkPages
	base := Addr(0x10000000)
	as := New(mem.New(), Costs{})
	cycle := func() {
		if err := as.MmapFixed(base, pages*mem.PageSize, ProtRW, KindAnon, ""); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pages; i += chunkPages / 2 {
			as.WriteWord(base+Addr(i*mem.PageSize), 0x0101010101010101)
		}
		as.Release()
		runtime.GC()
		runtime.GC()
	}
	cycle()
	if n := testing.AllocsPerRun(5, cycle); n != 0 {
		t.Fatalf("mapping and writing a released span again after two collections: %v allocs, want 0", n)
	}
}
