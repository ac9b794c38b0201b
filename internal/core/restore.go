package core

import (
	"fmt"
	"slices"

	"groundhog/internal/faults"
	"groundhog/internal/mem"
	"groundhog/internal/sim"
	"groundhog/internal/spare"
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
// between the current break and the snapshot's is the brk injection's to
// grow or shrink back, so the diff neither unmaps nor maps it; any other
// region there is the diff's. Everywhere else the heap is a region like any
// other: a hole a request unmapped below both breaks is mapped back, and its
// protection changes are reverted.
func (sc *diffScratch) diff(cur, snap []vm.VMA, curBrk, snapBrk vm.Addr) layoutDiff {
	// Collect every boundary, the two breaks among them.
	sc.cuts = append(sc.cuts[:0], curBrk, snapBrk)
	for _, v := range cur {
		sc.cuts = append(sc.cuts, v.Start, v.End)
	}
	for _, v := range snap {
		sc.cuts = append(sc.cuts, v.Start, v.End)
	}
	slices.Sort(sc.cuts)
	cuts := slices.Compact(sc.cuts)

	d := layoutDiff{brkDelta: curBrk != snapBrk}
	brkLo, brkHi := min(curBrk, snapBrk), max(curBrk, snapBrk)
	sc.unmap, sc.remap, sc.reprotect = sc.unmap[:0], sc.remap[:0], sc.reprotect[:0]
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		c, cok := lookupVMA(cur, lo)
		s, sok := lookupVMA(snap, lo)
		byBrk := brkLo <= lo && lo < brkHi
		switch {
		case cok && sok && c.Kind == s.Kind && c.Name == s.Name:
			if c.Prot != s.Prot {
				sc.reprotect = appendRun(sc.reprotect, vm.VMA{Start: lo, End: hi, Prot: s.Prot, Kind: s.Kind, Name: s.Name})
			}
		case cok || sok:
			// Not the snapshot's region, or none: unmap what is here (heap
			// growth is the brk injection's to take back) and map the
			// snapshot's back (heap shrinkage is the brk injection's to grow
			// back). A region over part of a snapshot region's range is both.
			if cok && !(byBrk && c.Kind == vm.KindHeap) {
				sc.unmap = appendRun(sc.unmap, vm.VMA{Start: lo, End: hi, Prot: c.Prot, Kind: c.Kind, Name: c.Name})
			}
			if sok && !(byBrk && s.Kind == vm.KindHeap) {
				sc.remap = appendRun(sc.remap, vm.VMA{Start: lo, End: hi, Prot: s.Prot, Kind: s.Kind, Name: s.Name})
			}
		}
	}
	d.unmap, d.remap, d.reprotect = sc.unmap, sc.remap, sc.reprotect
	return d
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

// restoreScratch holds every buffer the restore and snapshot paths reuse
// across calls. After the first Restore has sized them, steady-state
// restores (requests that dirty pages without changing the memory layout)
// perform zero heap allocations under both trackers: every set below is read
// through the address space's append-style accessors — the properties pinned
// by TestRestoreSteadyStateZeroAllocs and TestRestoreUffdSteadyStateZeroAllocs.
type restoreScratch struct {
	meter   sim.Meter         // the restore's meter, attributing into phases
	phases  PhaseBreakdown    // the restore's per-phase costs
	layout  []vm.VMA          // current memory map
	pm      []vm.PagemapEntry // TakeSnapshot: one VMA's pagemap entries at a time
	dirty   []uint64          // sorted soft-dirty VPNs
	present []uint64          // sorted VPNs made resident this epoch (TakeSnapshot: every resident VPN)
	lost    []uint64          // sorted VPNs that lost their frame this epoch, the restorer's munmaps included
	fresh   []uint64          // resident, not in snapshot, inside surviving regions
	restore []int             // store indices whose contents must be copied back
	runs    []vpnRun          // coalesced madvise runs
	diff    diffScratch
}

// spareScratch holds the restore scratch of managers whose last hold was
// released, for the next manager attach creates, a full cold start's or a
// clone's: without it every new manager grows its layout, page and plan
// buffers from nothing over its first restores, and a fleet that scales to
// zero and back, or loses a host, makes new managers all the time.
var spareScratch spare.List[restoreScratch]

// retireScratch passes the manager's scratch to the spare list, every buffer
// at length 0 with its capacity and no region name left in any VMA slot, and
// leaves the manager none of it.
func (m *Manager) retireScratch() {
	sc := &m.scratch
	d := &sc.diff
	spareScratch.Put(restoreScratch{
		layout:  spare.Emptied(sc.layout),
		pm:      sc.pm[:0],
		dirty:   sc.dirty[:0],
		present: sc.present[:0],
		lost:    sc.lost[:0],
		fresh:   sc.fresh[:0],
		restore: sc.restore[:0],
		runs:    sc.runs[:0],
		diff: diffScratch{
			cuts:      d.cuts[:0],
			unmap:     spare.Emptied(d.unmap),
			remap:     spare.Emptied(d.remap),
			reprotect: spare.Emptied(d.reprotect),
		},
	})
	m.scratch = restoreScratch{}
}

// Restore rolls the function process back to the snapshot (§4.4). It must
// run between requests: the caller guarantees the function has returned its
// response and is quiescent. The returned stats carry the per-phase
// breakdown plotted in Fig. 8.
//
// It is the paper's sequence, one function per step: scan the page metadata,
// diff the layouts, reverse the layout changes, plan and apply the content
// rollback (madvise, copy), re-arm tracking. The data path is run-oriented:
// sorted-slice merges against the snapshot's VPN index replace hash-map
// membership tests, and contiguous dirty runs are copied back with single
// batched pokes straight out of the StateStore's pages. All intermediate state
// lives in the manager's reusable scratch buffers.
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
	sc, as := &m.scratch, m.proc.AS
	sc.begin()
	m.tracer.SetMeter(&sc.meter)
	defer m.tracer.SetMeter(nil)

	sc.meter.Attribute(&sc.phases[phInterrupt])
	if err := m.tracer.InterruptAll(); err != nil {
		return RestoreStats{}, err
	}

	// Read the current memory map into the reusable layout buffer, the way
	// TakeSnapshot read the one it recorded.
	sc.meter.Attribute(&sc.phases[phReadMaps])
	sc.layout = m.fs.MapsRegions(m.proc, &sc.meter, sc.layout[:0])

	// Whether the layout (and brk) ended the request as the snapshot recorded
	// it only decides if the diff sweeps.
	same := as.BrkValue() == m.snap.Brk && slices.Equal(sc.layout, m.snap.Layout)

	mapped := m.scan()
	diff := m.diffLayout(same)
	if err := m.applyLayout(diff); err != nil {
		return RestoreStats{}, err
	}
	m.plan()
	if err := m.applyContent(); err != nil {
		return RestoreStats{}, err
	}
	if err := m.rearm(); err != nil {
		return RestoreStats{}, err
	}
	return m.restoreStats(mapped, diff), nil
}

// begin empties the meter and the breakdown for one restore.
func (sc *restoreScratch) begin() {
	sc.meter.Reset()
	sc.phases = PhaseBreakdown{}
}

// restoreStats closes the restore's meter and reports what the phases did.
func (m *Manager) restoreStats(mapped int, diff layoutDiff) RestoreStats {
	sc := &m.scratch
	sc.meter.Attribute(nil)
	return RestoreStats{
		Total:          sc.meter.Total(),
		PhaseDurations: sc.phases,
		MappedPages:    mapped,
		DirtyPages:     len(sc.dirty),
		RestoredPages:  len(sc.restore),
		DroppedPages:   len(sc.fresh),
		LayoutOps:      diff.ops() + len(sc.runs),
	}
}

// scan reads the page metadata into sc.dirty and sc.present and returns the
// number of mapped pages. The data comes from the address space's epoch logs
// — the dirty set from the dirty log, and of the resident set just the
// epoch's fresh pages: the previous restore dropped every resident page
// outside the store, so those are the only ones plan can need. Restore then
// runs O(dirty + fresh + lost) instead of O(resident), whatever the request
// did to the layout, while charging what the real scan costs: the simulated
// kernel still reads the pagemap; only the simulator stops re-deriving what
// it knows. Soft-dirty tracking reads the pagemap one mapped region at a
// time: a seek per region, an entry per mapped page, whatever is resident.
// Under UFFD the fault handler accumulated the dirty set during the request,
// so reading it costs per dirty page, plus a mincore-style check of the
// resident set for newly paged-in pages.
func (m *Manager) scan() int {
	sc, as, cost := &m.scratch, m.proc.AS, &m.kern.Cost
	sc.meter.Attribute(&sc.phases[phScanPages])
	sc.dirty = as.AppendSoftDirtyVPNs(sc.dirty[:0])
	sc.present = as.AppendFreshVPNs(sc.present[:0])
	mapped := as.MappedPages()
	if m.opts.Tracker == TrackUffd {
		sc.meter.Charge(cost.PagemapPerPage*sim.Duration(len(sc.dirty)) + cost.ResidentScanPerPage*sim.Duration(as.ResidentPages()))
	} else {
		sc.meter.Charge(cost.PagemapRangeBase*sim.Duration(len(sc.layout)) + cost.PagemapPerPage*sim.Duration(mapped))
	}
	return mapped
}

// diffLayout diffs the current layout against the snapshot's. When the
// caller already found the layouts (and brk) identical the diff is empty by
// construction; the simulated diff work is charged all the same.
func (m *Manager) diffLayout(same bool) layoutDiff {
	sc := &m.scratch
	sc.meter.Attribute(&sc.phases[phDiff])
	var d layoutDiff
	if !same {
		d = sc.diff.diff(sc.layout, m.snap.Layout, m.proc.AS.BrkValue(), m.snap.Brk)
	}
	sc.meter.Charge(m.kern.Cost.DiffPerVMA * sim.Duration(len(sc.layout)+len(m.snap.Layout)))
	return d
}

// applyLayout reverses the layout changes by injecting syscalls. The brk
// runs between the munmaps and the mmaps: a break that grows back needs its
// range free of what the request mapped there, and a break that shrinks back
// removes the heap from where a snapshot region is then mapped back.
func (m *Manager) applyLayout(d layoutDiff) error {
	sc := &m.scratch
	sc.meter.Attribute(&sc.phases[phMunmap])
	for _, v := range d.unmap {
		if err := m.tracer.InjectMunmap(v.Start, v.Len()); err != nil {
			return fmt.Errorf("core: restore munmap %v: %w", v, err)
		}
	}
	sc.meter.Attribute(&sc.phases[phBrk])
	if d.brkDelta {
		if err := m.tracer.InjectBrk(m.snap.Brk); err != nil {
			return fmt.Errorf("core: restore brk: %w", err)
		}
	}
	sc.meter.Attribute(&sc.phases[phMmap])
	for _, v := range d.remap {
		if err := m.tracer.InjectMmapFixed(v.Start, v.Len(), v.Prot, v.Kind, v.Name); err != nil {
			return fmt.Errorf("core: restore mmap %v: %w", v, err)
		}
	}
	sc.meter.Attribute(&sc.phases[phMprotect])
	for _, v := range d.reprotect {
		if err := m.tracer.InjectMprotect(v.Start, v.Len(), v.Prot); err != nil {
			return fmt.Errorf("core: restore mprotect %v: %w", v, err)
		}
	}
	return nil
}

// seek advances cursor i over the sorted vpns to the first entry not below
// vpn and reports whether that entry is vpn. It gallops — probes at distance
// 0, 1, 3, 7, … from the cursor, then a binary search between the last probe
// below vpn and the first not below — so a neighbouring page costs what a
// single step would and a short list merged against the whole store index
// its own length times a logarithm.
func seek(vpns []uint64, i int, vpn uint64) (int, bool) {
	probe, step := i, 1
	for probe < len(vpns) && vpns[probe] < vpn {
		i, probe, step = probe+1, probe+step, step<<1
	}
	for hi := min(probe, len(vpns)); i < hi; {
		if mid := int(uint(i+hi) >> 1); vpns[mid] < vpn {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	return i, i < len(vpns) && vpns[i] == vpn
}

// plan computes the two sets of the content rollback, after the layout is
// back in place and before anything is dropped or copied:
//
//   - sc.fresh, the madvise set: pages resident now, absent from the snapshot,
//     inside regions that survive (pages in removed regions went with their
//     munmap);
//   - sc.restore, the copy set, as store indices: every snapshot page that is
//     dirty, or that has real content and lost the frame the snapshot saw
//     (madvised away, moved away or in a re-created region) even if a read
//     has since faulted a zero frame back in. Zero pages refault to zero on
//     demand and need no copy.
//
// The logs say what a walk of the page table would find. A store page is off
// the frame the snapshot saw only if it was written (dirty log) or lost its
// frame (lost log, read here, after applyLayout, so that the restorer's own
// munmaps are in it) — the previous restore left every other store page with
// content resident on it — and sc.present holds only the epoch's fresh
// pages. So the merges run over the short lists, dirty ∪ lost in page order,
// never the store.
func (m *Manager) plan() {
	sc, st := &m.scratch, m.snap
	sc.fresh, sc.restore = sc.fresh[:0], sc.restore[:0]
	sc.lost = m.proc.AS.AppendLostVPNs(sc.lost[:0])
	di, li, si, hit := 0, 0, 0, false
	for di < len(sc.dirty) || li < len(sc.lost) {
		isDirty := li == len(sc.lost) || di < len(sc.dirty) && sc.dirty[di] <= sc.lost[li]
		vpn := uint64(0)
		if isDirty {
			vpn, di = sc.dirty[di], di+1
		} else {
			vpn = sc.lost[li]
		}
		if li < len(sc.lost) && sc.lost[li] == vpn {
			li++
		}
		if si, hit = seek(st.VPNs, si, vpn); hit && (isDirty || !st.zeroAt(si, m.kern.Phys)) {
			sc.restore = append(sc.restore, si)
		}
	}
	si = 0
	for _, vpn := range sc.present {
		if si, hit = seek(st.VPNs, si, vpn); !hit {
			m.addFresh(vpn)
		}
	}
}

// addFresh puts a resident page the store does not hold into the madvise set
// if its region survives the restore.
func (m *Manager) addFresh(vpn uint64) {
	if _, ok := lookupVMA(m.snap.Layout, vm.PageAddr(vpn)); ok {
		m.scratch.fresh = append(m.scratch.fresh, vpn)
	}
}

// applyContent carries out plan: one injected madvise per run of fresh pages,
// then one batched poke per run of contiguous restore pages. The pokes move
// only each page's soft-dirty extent (see vm.PTE); the charges stay whole
// pages.
func (m *Manager) applyContent() error {
	sc, st, cost := &m.scratch, m.snap, &m.kern.Cost
	sc.meter.Attribute(&sc.phases[phMadvise])
	sc.runs = appendRuns(sc.runs[:0], sc.fresh)
	for _, r := range sc.runs {
		if err := m.tracer.InjectMadvise(vm.PageAddr(r.start), r.n*mem.PageSize); err != nil {
			return fmt.Errorf("core: restore madvise: %w", err)
		}
	}
	sc.meter.Attribute(&sc.phases[phRestoreMem])
	for i := 0; i < len(sc.restore); {
		j := i + 1
		for j < len(sc.restore) && sc.restore[j] == sc.restore[j-1]+1 &&
			st.VPNs[sc.restore[j]] == st.VPNs[sc.restore[j-1]]+1 {
			j++
		}
		m.restoreRun(m.proc.AS, st, sc.restore[i], sc.restore[j-1]+1)
		n := j - i
		if m.opts.Coalesce {
			sc.meter.Charge(cost.PageCopy + cost.PageCopyTail*sim.Duration(n-1))
		} else {
			sc.meter.Charge(cost.PageCopy * sim.Duration(n))
		}
		i = j
	}
	return nil
}

// rearm starts the next epoch: clear the soft-dirty bits (or re-arm UFFD
// write protection on the pages that faulted), put every thread's registers
// back, and release the stop (the manager stays seized).
func (m *Manager) rearm() error {
	sc, cost := &m.scratch, &m.kern.Cost
	sc.meter.Attribute(&sc.phases[phClearSD])
	if m.opts.Tracker == TrackUffd {
		m.proc.AS.ClearSoftDirty()
		sc.meter.Charge(cost.ClearRefsPerPage * sim.Duration(len(sc.dirty)))
	} else {
		m.fs.ClearRefs(m.proc, &sc.meter)
	}
	sc.meter.Attribute(&sc.phases[phRestoreRegs])
	if len(m.proc.Threads) != len(m.snap.Regs) {
		return fmt.Errorf("core: %d threads, snapshot had %d", len(m.proc.Threads), len(m.snap.Regs))
	}
	for i, th := range m.proc.Threads {
		if err := m.tracer.SetRegs(th.TID, m.snap.Regs[i]); err != nil {
			return err
		}
	}
	sc.meter.Attribute(&sc.phases[phDetach])
	sc.meter.Charge(cost.PtraceDetachPerThread * sim.Duration(len(m.proc.Threads)))
	return m.tracer.Resume()
}

// restoreRun copies the recorded pages at store indices [lo, hi) — a run of
// consecutive VPNs — back into the address space with one batched poke: of
// the CoW store's frames, or of the copy store's lent pages (nil ones zero
// their page).
func (m *Manager) restoreRun(as *vm.AddressSpace, st *snapshot, lo, hi int) {
	if st.Frames != nil {
		as.PokeFrameRun(st.VPNs[lo], st.Frames[lo:hi])
		return
	}
	as.PokePageRun(st.VPNs[lo], st.pages[lo:hi])
}
