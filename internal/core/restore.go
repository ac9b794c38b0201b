package core

import (
	"fmt"
	"slices"

	"groundhog/internal/faults"
	"groundhog/internal/mem"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

// layoutDiff is the plan computed by diffing the current memory layout
// against the snapshot (§4.4: "grown, shrunk, merged, split, deleted, new
// memory regions"). Its slices alias the diffScratch that produced it and
// are valid until the next diff.
type layoutDiff struct {
	unmap     []vm.VMA // present now, absent in snapshot
	remap     []vm.VMA // absent now, present in snapshot (attrs from snapshot)
	reprotect []vm.VMA // same range, protection differs (attrs from snapshot)
	brkDelta  bool
}

func (d *layoutDiff) ops() int {
	n := len(d.unmap) + len(d.remap) + len(d.reprotect)
	if d.brkDelta {
		n++
	}
	return n
}

// diffScratch holds the reusable buffers of the layout diff so the restore
// hot path computes it without allocating.
type diffScratch struct {
	cuts      []vm.Addr
	unmap     []vm.VMA
	remap     []vm.VMA
	reprotect []vm.VMA
}

// lookupVMA returns the region of a sorted layout containing a. It is a
// hand-rolled binary search (no sort.Search closure) so the restore hot path
// stays allocation-free.
func lookupVMA(layout []vm.VMA, a vm.Addr) (vm.VMA, bool) {
	lo, hi := 0, len(layout)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if layout[mid].End > a {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(layout) && layout[lo].Contains(a) {
		return layout[lo], true
	}
	return vm.VMA{}, false
}

// appendRun appends interval v to list, merging with the previous interval
// when contiguous and attribute-compatible so one syscall covers a whole
// changed range.
func appendRun(list []vm.VMA, v vm.VMA) []vm.VMA {
	if n := len(list); n > 0 && list[n-1].End == v.Start && list[n-1].SameAttrs(v) {
		list[n-1].End = v.End
		return list
	}
	return append(list, v)
}

// diff compares region lists with a boundary sweep. Both lists must be
// sorted by start address (as /proc maps and vm.VMAs always are). Heap
// growth and shrinkage are left to the brk injection, but heap protection
// changes are reverted like any other region's.
func (sc *diffScratch) diff(cur, snap []vm.VMA) layoutDiff {
	// Collect every boundary.
	sc.cuts = sc.cuts[:0]
	for _, v := range cur {
		sc.cuts = append(sc.cuts, v.Start, v.End)
	}
	for _, v := range snap {
		sc.cuts = append(sc.cuts, v.Start, v.End)
	}
	slices.Sort(sc.cuts)
	cuts := dedupAddrs(sc.cuts)

	var d layoutDiff
	sc.unmap, sc.remap, sc.reprotect = sc.unmap[:0], sc.remap[:0], sc.reprotect[:0]
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		c, cok := lookupVMA(cur, lo)
		s, sok := lookupVMA(snap, lo)
		switch {
		case cok && !sok:
			if c.Kind == vm.KindHeap {
				break // heap growth: reversed by the brk injection
			}
			sc.unmap = appendRun(sc.unmap, vm.VMA{Start: lo, End: hi, Prot: c.Prot, Kind: c.Kind, Name: c.Name})
		case !cok && sok:
			if s.Kind == vm.KindHeap {
				break // heap shrinkage: reversed by the brk injection
			}
			sc.remap = appendRun(sc.remap, vm.VMA{Start: lo, End: hi, Prot: s.Prot, Kind: s.Kind, Name: s.Name})
		case cok && sok && s.Kind != vm.KindHeap && (c.Kind != s.Kind || c.Name != s.Name):
			// Another region now covers a snapshot region's range (the
			// request unmapped part of it and something else grew or was
			// mapped there): unmap the impostor, map the original back.
			sc.unmap = appendRun(sc.unmap, vm.VMA{Start: lo, End: hi, Prot: c.Prot, Kind: c.Kind, Name: c.Name})
			sc.remap = appendRun(sc.remap, vm.VMA{Start: lo, End: hi, Prot: s.Prot, Kind: s.Kind, Name: s.Name})
		case cok && sok && (c.Prot != s.Prot):
			sc.reprotect = appendRun(sc.reprotect, vm.VMA{Start: lo, End: hi, Prot: s.Prot, Kind: s.Kind, Name: s.Name})
		}
	}
	d.unmap, d.remap, d.reprotect = sc.unmap, sc.remap, sc.reprotect
	return d
}

// diffLayouts is the standalone form of diffScratch.diff, kept for tests and
// one-shot callers.
func diffLayouts(cur, snap []vm.VMA) layoutDiff {
	var sc diffScratch
	return sc.diff(cur, snap)
}

// layoutsEqual reports whether two sorted region lists are identical —
// every VMA equal in range, protection, kind, and name. This is the
// steady-state gate: a request that performed no mmap/munmap/mprotect/brk
// growth leaves the layout exactly as the snapshot recorded it, and the
// restore can skip the diff's work (though never its charges).
func layoutsEqual(cur, snap []vm.VMA) bool {
	if len(cur) != len(snap) {
		return false
	}
	for i := range cur {
		if cur[i] != snap[i] {
			return false
		}
	}
	return true
}

func dedupAddrs(in []vm.Addr) []vm.Addr {
	out := in[:0]
	for i, a := range in {
		if i == 0 || a != out[len(out)-1] {
			out = append(out, a)
		}
	}
	return out
}

// vpnRun is a maximal run of consecutive page numbers.
type vpnRun struct {
	start uint64
	n     int
}

// appendRuns groups a sorted vpn list into maximal consecutive runs,
// appending to dst (pass a reused dst[:0] to avoid allocating).
func appendRuns(dst []vpnRun, vpns []uint64) []vpnRun {
	for _, vpn := range vpns {
		if n := len(dst); n > 0 && dst[n-1].start+uint64(dst[n-1].n) == vpn {
			dst[n-1].n++
			continue
		}
		dst = append(dst, vpnRun{start: vpn, n: 1})
	}
	return dst
}

// runsOf groups a sorted vpn list into maximal consecutive runs.
func runsOf(vpns []uint64) []vpnRun {
	return appendRuns(nil, vpns)
}

// restoreScratch holds every buffer the restore and snapshot paths reuse
// across calls. After the first Restore has sized them, steady-state
// restores (requests that dirty pages without changing the memory layout)
// perform zero heap allocations under both trackers: the soft-dirty path
// scans the pagemap into reused buffers, and the UFFD path reads the address
// space's incremental dirty log and resident set through the append-style
// accessors — the properties pinned by TestRestoreSteadyStateZeroAllocs and
// TestRestoreUffdSteadyStateZeroAllocs.
type restoreScratch struct {
	meter   *sim.Meter
	layout  []vm.VMA          // current memory map
	pm      []vm.PagemapEntry // one VMA's present pagemap entries at a time
	dirty   []uint64          // sorted soft-dirty VPNs
	present []uint64          // sorted resident VPNs
	fresh   []uint64          // resident, not in snapshot, inside surviving regions
	restore []int             // store indices whose contents must be copied back
	runs    []vpnRun          // coalesced madvise runs
	diff    diffScratch
}

// Restore rolls the function process back to the snapshot (§4.4). It must
// run between requests: the caller guarantees the function has returned its
// response and is quiescent. The returned stats carry the per-phase
// breakdown plotted in Fig. 8.
//
// The data path is run-oriented: sorted-slice merges against the snapshot's
// VPN index replace hash-map membership tests, and contiguous dirty runs are
// copied back with single batched pokes straight out of the StateStore arena.
// All intermediate state lives in the manager's reusable scratch buffers.
func (m *Manager) Restore() (RestoreStats, error) {
	if m.snap == nil {
		return RestoreStats{}, fmt.Errorf("core: restore before snapshot")
	}
	// Injected restore faults fire before any state is touched, so a failed
	// restore never leaves the process half-rolled-back: the caller's only
	// safe recovery — tearing the container down — releases everything.
	if ferr := m.kern.Faults.Fire(faults.SiteRestore); ferr != nil {
		return RestoreStats{}, fmt.Errorf("core: restore: %w", ferr)
	}
	sc := &m.scratch
	if sc.meter == nil {
		sc.meter = sim.NewMeter()
	}
	meter := sc.meter
	meter.Reset()
	m.tracer.SetMeter(meter)
	defer m.tracer.SetMeter(nil)
	as := m.proc.AS

	// 1. Interrupt every thread.
	meter.BeginPhase(PhaseInterrupt)
	if err := m.tracer.InterruptAll(); err != nil {
		return RestoreStats{}, err
	}

	// 2. Read the current memory map (binary fast path into the reusable
	// layout buffer; costs and contents identical to parsing the text form,
	// as the procfs tests assert).
	meter.BeginPhase(PhaseReadMaps)
	sc.layout = m.fs.MapsRegions(m.proc, meter, sc.layout[:0])
	curLayout := sc.layout

	// Steady-state fast path: if the request left the layout (and brk)
	// exactly as the snapshot recorded it and both incremental logs cover
	// the epoch, everything the remaining phases need is already known —
	// the diff is empty, the dirty set is in the dirty log, and the only
	// resident pages that can lie outside the snapshot store are the ones
	// the fresh log recorded coming in. The fast path exploits that to run
	// O(dirty + fresh) instead of O(resident), while charging the exact
	// virtual costs of the scans it skips: the simulated kernel still reads
	// the pagemap; only the simulator stops re-deriving what it knows.
	// Layout churn (python/node mmap cycles), mremap moves, and tracking
	// switches all disarm the gate and fall back to the exact walk below.
	//
	// A disarmed fresh log also means the request may have dropped resident
	// pages (vm.DropPage disarms it), which is what the restore set below
	// needs to know; the restorer's own drops come later and do not count.
	dropped := !as.FreshLogArmed()
	fast := as.DirtyLogArmed() && !dropped &&
		as.BrkValue() == m.snap.brk && layoutsEqual(curLayout, m.snap.layout)

	// 3. Scan page metadata: which pages are resident, which are dirty.
	// Under soft-dirty tracking this reads the pagemap one mapped region at
	// a time (never materializing a full-address-space flag slice); under
	// UFFD the dirty set was accumulated by the fault handler during the
	// request (the address space's dirty log), so reading it costs per
	// dirty page — but the resident set still has to be checked for newly
	// paged-in pages, a mincore-style walk charged per resident page.
	//
	// On the fast path sc.present holds only the fresh candidates — the
	// pages that became resident this epoch — because the previous restore
	// dropped every resident page outside the store, so those candidates
	// are the only resident pages the madvise phase can possibly need.
	meter.BeginPhase(PhaseScanPages)
	sc.dirty, sc.present = sc.dirty[:0], sc.present[:0]
	var mappedPages int
	switch {
	case fast && m.opts.Tracker == TrackUffd:
		sc.dirty = as.AppendSoftDirtyVPNs(sc.dirty)
		sc.present = as.AppendFreshVPNs(sc.present)
		mappedPages = as.MappedPages()
		sim.ChargeTo(meter, m.kern.Cost.PagemapPerPage*sim.Duration(len(sc.dirty)))
		sim.ChargeTo(meter, m.kern.Cost.ResidentScanPerPage*sim.Duration(as.ResidentPages()))
	case fast:
		sc.dirty = as.AppendSoftDirtyVPNs(sc.dirty)
		sc.present = as.AppendFreshVPNs(sc.present)
		for _, v := range curLayout {
			mappedPages += v.Pages()
			sim.ChargeTo(meter, m.kern.Cost.PagemapRangeBase+m.kern.Cost.PagemapPerPage*sim.Duration(v.Pages()))
		}
	case m.opts.Tracker == TrackUffd:
		logged := as.DirtyLogArmed()
		sc.dirty = as.AppendSoftDirtyVPNs(sc.dirty)
		sc.present = as.AppendResidentVPNs(sc.present)
		mappedPages = as.MappedPages()
		if logged {
			sim.ChargeTo(meter, m.kern.Cost.PagemapPerPage*sim.Duration(len(sc.dirty)))
			sim.ChargeTo(meter, m.kern.Cost.ResidentScanPerPage*sim.Duration(len(sc.present)))
		} else {
			// The log was invalidated (an mremap move relocated PTEs, or
			// tracking was switched): the dirty set came from a fallback
			// page-table walk, priced like the full pagemap scan it stands
			// in for (which also covers the resident check).
			sim.ChargeTo(meter, m.kern.Cost.PagemapPerPage*sim.Duration(mappedPages))
		}
	default:
		for _, v := range curLayout {
			sc.pm = m.fs.PagemapRangePresent(m.proc, v.Start, v.End, meter, sc.pm[:0])
			mappedPages += v.Pages()
			for _, pf := range sc.pm {
				sc.present = append(sc.present, pf.VPN)
				if pf.SoftDirty {
					sc.dirty = append(sc.dirty, pf.VPN)
				}
			}
		}
	}

	// 4. Diff the memory layouts. On the fast path the gate already proved
	// the layouts (and brk) identical, so the diff is empty by
	// construction; the simulated diff work is charged all the same.
	meter.BeginPhase(PhaseDiff)
	var diff layoutDiff
	if !fast {
		diff = sc.diff.diff(curLayout, m.snap.layout)
		curBrk, err := as.Brk(0)
		if err != nil {
			return RestoreStats{}, err
		}
		diff.brkDelta = curBrk != m.snap.brk
	}
	sim.ChargeTo(meter, m.kern.Cost.DiffPerVMA*sim.Duration(len(curLayout)+len(m.snap.layout)))

	stats := RestoreStats{
		MappedPages: mappedPages,
		DirtyPages:  len(sc.dirty),
	}

	// 5. Reverse layout changes by injecting syscalls.
	meter.BeginPhase(PhaseBrk)
	if diff.brkDelta {
		if err := m.tracer.InjectBrk(m.snap.brk); err != nil {
			return RestoreStats{}, fmt.Errorf("core: restore brk: %w", err)
		}
		stats.LayoutOps++
	}
	meter.BeginPhase(PhaseMunmap)
	for _, v := range diff.unmap {
		if err := m.tracer.InjectMunmap(v.Start, v.Len()); err != nil {
			return RestoreStats{}, fmt.Errorf("core: restore munmap %v: %w", v, err)
		}
		stats.LayoutOps++
	}
	meter.BeginPhase(PhaseMmap)
	for _, v := range diff.remap {
		if err := m.tracer.InjectMmapFixed(v.Start, v.Len(), v.Prot, v.Kind, v.Name); err != nil {
			return RestoreStats{}, fmt.Errorf("core: restore mmap %v: %w", v, err)
		}
		stats.LayoutOps++
	}
	meter.BeginPhase(PhaseMprotect)
	for _, v := range diff.reprotect {
		if err := m.tracer.InjectMprotect(v.Start, v.Len(), v.Prot); err != nil {
			return RestoreStats{}, fmt.Errorf("core: restore mprotect %v: %w", v, err)
		}
		stats.LayoutOps++
	}

	// 6. Madvise newly paged pages: resident now, absent from the snapshot,
	// inside regions that survive. (Pages in removed regions are already
	// gone with their munmap.) sc.present and the store's VPN index are both
	// sorted, so one linear merge finds the fresh set — no per-page
	// membership search — and the runs coalesce directly. The same merge
	// serves the fast path, where sc.present holds only the epoch's fresh
	// candidates: the previous restore dropped every resident page outside
	// the store, so pages the fresh log never saw cannot be in this set.
	meter.BeginPhase(PhaseMadvise)
	snapLayout := m.snap.layout
	st := &m.snap.store
	sc.fresh = sc.fresh[:0]
	si := 0
	for _, vpn := range sc.present {
		for si < len(st.vpns) && st.vpns[si] < vpn {
			si++
		}
		if si < len(st.vpns) && st.vpns[si] == vpn {
			continue
		}
		if _, ok := lookupVMA(snapLayout, vm.PageAddr(vpn)); ok {
			sc.fresh = append(sc.fresh, vpn)
		}
	}
	sc.runs = appendRuns(sc.runs[:0], sc.fresh)
	for _, r := range sc.runs {
		if err := m.tracer.InjectMadvise(vm.PageAddr(r.start), r.n*mem.PageSize); err != nil {
			return RestoreStats{}, fmt.Errorf("core: restore madvise: %w", err)
		}
		stats.LayoutOps++
	}
	stats.DroppedPages = len(sc.fresh)

	// 7. Restore memory contents: every snapshot page that is dirty, or
	// that lost its frame (madvised away or in a re-created region) — even
	// if a read has since faulted a zero frame back in — gets its recorded
	// contents back. The dirty list, the resident set, and the store's VPN
	// index are all sorted, so one three-way linear merge finds the restore
	// set; runs of contiguous pages then copy back in single batched pokes.
	// The pokes move only each page's soft-dirty extent (see vm.PTE); the
	// charges stay whole pages.
	meter.BeginPhase(PhaseRestoreMem)
	phys := m.kern.Phys
	sc.restore = sc.restore[:0]
	if fast {
		// In a fast epoch the restore set is exactly the dirty store pages.
		// The slow path's second clause — non-resident pages with real
		// content — is empty here: the previous restore re-poked every such
		// page (leaving non-resident store pages zero-in-snapshot only), and
		// a request that drops a resident page disarms the gate. So the
		// merge runs over the dirty list, not the store.
		ri := 0
		for _, vpn := range sc.dirty {
			for ri < len(st.vpns) && st.vpns[ri] < vpn {
				ri++
			}
			if ri < len(st.vpns) && st.vpns[ri] == vpn {
				sc.restore = append(sc.restore, ri)
			}
		}
	} else {
		di, pi := 0, 0
		for i, vpn := range st.vpns {
			for di < len(sc.dirty) && sc.dirty[di] < vpn {
				di++
			}
			if di < len(sc.dirty) && sc.dirty[di] == vpn {
				sc.restore = append(sc.restore, i)
				continue
			}
			// Page content lives only in the snapshot: re-poke if it has
			// real content and the frame the snapshot saw is gone. (Zero
			// pages refault to zero on demand; no copy needed.) A page the
			// scan did not find resident has lost it. One it did find may
			// have too, but only if the request dropped pages: a read can
			// have faulted a zero frame back in, or the page sat in a region
			// the munmap phase above just removed. Then, and only then, the
			// page table is asked; otherwise the scan is authoritative (the
			// injected syscalls drop nothing else inside the store).
			for pi < len(sc.present) && sc.present[pi] < vpn {
				pi++
			}
			resident := pi < len(sc.present) && sc.present[pi] == vpn
			if resident && !(dropped && lostFrame(as, vpn)) {
				continue
			}
			if !st.zeroAt(i, phys) {
				sc.restore = append(sc.restore, i)
			}
		}
	}
	for i := 0; i < len(sc.restore); {
		j := i + 1
		for j < len(sc.restore) && sc.restore[j] == sc.restore[j-1]+1 &&
			st.vpns[sc.restore[j]] == st.vpns[sc.restore[j-1]]+1 {
			j++
		}
		m.restoreRun(as, st, sc.restore[i], sc.restore[j-1]+1)
		n := j - i
		sim.ChargeTo(meter, m.kern.Cost.RestoreRunSetup)
		if m.opts.Coalesce {
			sim.ChargeTo(meter, m.kern.Cost.PageCopy+m.kern.Cost.PageCopyTail*sim.Duration(n-1))
		} else {
			sim.ChargeTo(meter, m.kern.Cost.PageCopy*sim.Duration(n))
		}
		i = j
	}
	stats.RestoredPages = len(sc.restore)

	// 8. Clear the soft-dirty bits (or re-arm UFFD write protection on the
	// pages that faulted).
	meter.BeginPhase(PhaseClearSD)
	if m.opts.Tracker == TrackUffd {
		as.ClearSoftDirty()
		sim.ChargeTo(meter, m.kern.Cost.ClearRefsPerPage*sim.Duration(len(sc.dirty)))
	} else {
		m.fs.ClearRefs(m.proc, meter)
	}

	// 9. Restore registers of all threads.
	meter.BeginPhase(PhaseRestoreRegs)
	for _, th := range m.proc.Threads {
		regs, ok := m.snap.regs[th.TID]
		if !ok {
			return RestoreStats{}, fmt.Errorf("core: thread %d appeared after snapshot", th.TID)
		}
		if err := m.tracer.SetRegs(th.TID, regs); err != nil {
			return RestoreStats{}, err
		}
	}

	// 10. Detach (release the stop; the manager stays seized).
	meter.BeginPhase(PhaseDetach)
	sim.ChargeTo(meter, m.kern.Cost.PtraceDetachPerThread*sim.Duration(len(m.proc.Threads)))
	if err := m.tracer.Resume(); err != nil {
		return RestoreStats{}, err
	}
	meter.BeginPhase("")

	stats.Total = meter.Total()
	for i, ph := range Phases {
		stats.PhaseDurations[i] = meter.Phase(ph)
	}
	return stats, nil
}

// lostFrame reports whether clean page vpn is no longer on the frame it had
// at the last clear: it is not resident, or it carries a soft-dirty extent —
// which a page that is not soft-dirty only does when it became resident
// since (a page born during the epoch carries the whole page).
func lostFrame(as *vm.AddressSpace, vpn uint64) bool {
	pte, ok := as.PTEAt(vpn)
	lo, hi := pte.Extent()
	return !ok || hi > lo
}

// restoreRun copies the recorded pages at store indices [lo, hi) — a run of
// consecutive VPNs — back into the address space. For the CoW store that is
// one batched frame copy; for the arena store the run splits into maximal
// sub-runs of uniform backing (contiguous arena bytes vs. all-zero), each
// restored with a single PokePageRun call.
func (m *Manager) restoreRun(as *vm.AddressSpace, st *stateStore, lo, hi int) {
	if st.frames != nil {
		as.PokeFrameRun(st.vpns[lo], st.frames[lo:hi])
		return
	}
	for k := lo; k < hi; {
		zero := st.off[k] < 0
		l := k + 1
		for l < hi && (st.off[l] < 0) == zero {
			l++
		}
		if zero {
			as.PokePageRun(st.vpns[k], l-k, nil)
		} else {
			as.PokePageRun(st.vpns[k], l-k, st.arena[st.off[k]:st.off[k]+(l-k)*mem.PageSize])
		}
		k = l
	}
}
