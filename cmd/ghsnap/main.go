// Command ghsnap is a snapshot/restore inspector: it builds a function
// process on the simulated kernel, takes a Groundhog snapshot, runs an
// adversarial "request" that taints memory, registers, and the layout, then
// restores and prints the per-phase cost breakdown (the single-benchmark
// equivalent of the paper's Fig. 8) plus the byte-level verification result.
//
// Usage:
//
//	ghsnap -pages 8000 -dirty 500 -threads 4
//	ghsnap -tracker uffd -no-coalesce
package main

import (
	"flag"
	"fmt"
	"os"

	"groundhog/internal/core"
	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/vm"
)

func main() {
	var (
		pages    = flag.Int("pages", 8000, "resident heap pages in the warm image")
		dirty    = flag.Int("dirty", 400, "pages the request writes")
		threads  = flag.Int("threads", 2, "threads in the function process")
		tracker  = flag.String("tracker", "soft-dirty", "write tracker: soft-dirty or uffd")
		store    = flag.String("store", "copy", "state store: copy (eager) or cow (§5.5)")
		noCoal   = flag.Bool("no-coalesce", false, "disable restore copy coalescing")
		churnOps = flag.Int("churn", 3, "mmap/munmap region cycles the request performs")
	)
	flag.Parse()
	if err := run(*pages, *dirty, *threads, *tracker, *store, !*noCoal, *churnOps); err != nil {
		fmt.Fprintf(os.Stderr, "ghsnap: %v\n", err)
		os.Exit(1)
	}
}

func run(pages, dirty, threads int, tracker, store string, coalesce bool, churnOps int) error {
	if dirty < 0 || dirty > pages {
		// The request writes one word per page from the heap's start; past
		// the last heap page it would write outside the process's mappings.
		return fmt.Errorf("-dirty %d outside [0, -pages %d]", dirty, pages)
	}
	opts := core.Options{Coalesce: coalesce}
	switch tracker {
	case "soft-dirty":
		opts.Tracker = core.TrackSoftDirty
	case "uffd":
		opts.Tracker = core.TrackUffd
	default:
		return fmt.Errorf("unknown tracker %q", tracker)
	}
	switch store {
	case "copy":
		opts.Store = core.StoreCopy
	case "cow":
		opts.Store = core.StoreCoW
	default:
		return fmt.Errorf("unknown store %q", store)
	}

	k := kernel.New(kernel.Default())
	p, err := k.Spawn(kernel.ExecSpec{TextPages: 64, DataPages: 16, Threads: threads})
	if err != nil {
		return err
	}
	heap := p.AS.HeapBase()
	if _, err := p.AS.Brk(heap + vm.Addr(pages*mem.PageSize)); err != nil {
		return err
	}
	for i := 0; i < pages; i++ {
		// Warm, non-zero contents: the state store has real bytes to
		// preserve.
		p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), 0xC0FFEE00+uint64(i))
	}

	mgr, err := core.NewManager(k, p, opts)
	if err != nil {
		return err
	}
	snap, err := mgr.TakeSnapshot()
	if err != nil {
		return err
	}
	fmt.Printf("snapshot: %d pages, %d regions, %v (one-time, at container init)\n",
		snap.Pages, snap.VMAs, snap.Duration)

	// The adversarial request.
	for i := 0; i < dirty; i++ {
		p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize)+64, 0x5EC4E7)
	}
	for i := 0; i < churnOps; i++ {
		a, err := p.AS.Mmap(32*mem.PageSize, vm.ProtRW, vm.KindAnon, fmt.Sprintf("scratch%d", i))
		if err != nil {
			return err
		}
		p.AS.WriteWord(a, uint64(i))
	}
	if _, err := p.AS.Brk(heap + vm.Addr((pages+128)*mem.PageSize)); err != nil {
		return err
	}
	for _, th := range p.Threads {
		th.Regs.GP[7] = 0xBADC0DE
	}

	st, err := mgr.Restore()
	if err != nil {
		return err
	}
	fmt.Printf("\nrestore: %v total — %d/%d pages dirty, %d restored, %d dropped, %d layout syscalls\n",
		st.Total, st.DirtyPages, st.MappedPages, st.RestoredPages, st.DroppedPages, st.LayoutOps)
	fmt.Println("\nphase breakdown (Fig. 8 legend order):")
	for i, ph := range core.Phases {
		d := st.PhaseDurations[i]
		pct := 0.0
		if st.Total > 0 {
			pct = 100 * float64(d) / float64(st.Total)
		}
		fmt.Printf("  %-26s %12v  %5.1f%%\n", ph, d, pct)
	}

	if err := mgr.Verify(); err != nil {
		return fmt.Errorf("verification FAILED: %w", err)
	}
	fmt.Println("\nverify: process state is byte-identical to the snapshot ✓")
	fmt.Printf("state store (%s): %.2f MB materialized\n",
		store, float64(mgr.StateStoreBytes())/(1<<20))
	return nil
}
