package vm

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"groundhog/internal/mem"
	"groundhog/internal/sim"
	"groundhog/internal/spare"
)

// Standard address-space layout constants. The specific values only need to
// be ordered and far apart; they echo the conventional x86-64 layout so that
// rendered /proc maps look familiar.
const (
	TextBase Addr = 0x0000000000400000
	// MmapTop is the top of the mmap area; mappings grow downward from it.
	MmapTop Addr = 0x00007f8000000000
	// StackTop is the top of the initial thread stack.
	StackTop Addr = 0x00007ffffffff000
	// DefaultStackBytes is the initial stack reservation.
	DefaultStackBytes = 8 << 20
)

// PTE is a page-table entry. A PTE exists only for resident pages; absence
// from the table means the page is unbacked and faults on first touch.
type PTE struct {
	Frame mem.FrameID
	// SoftDirty records that the page was written since the last
	// ClearSoftDirty (the kernel's soft-dirty bit, §4.3 of the paper).
	SoftDirty bool
	// wpArmed means the page is write-protected so the next write takes a
	// minor fault that sets SoftDirty. ClearSoftDirty arms it.
	wpArmed bool
	// cow means the frame may be shared with another address space and
	// must be copied before writing.
	cow bool
	// tlbCold means this address space has not touched the page since a
	// fork, so the first access pays the FirstTouch cost.
	tlbCold bool
	// lo and hi refine the soft-dirty bit to a soft-dirty extent: every byte
	// of the page written since the last ClearSoftDirty lies in [lo, hi), so
	// the bytes outside it still equal what the page held at that clear.
	// WriteWord widens the extent; a PTE born during the epoch (demand-zero
	// fault, poke of a non-resident page, MapFrameCoW, a CoW break inside a
	// poke, an mremap move to a new page number) carries the whole page,
	// because nothing relates its frame to the page's earlier contents;
	// ClearSoftDirty empties it (hi == 0). The two fields sit in what was
	// the struct's padding: a PTE stays 16 bytes.
	lo, hi uint16
}

// widen grows the extent to cover [lo, hi).
func (p *PTE) widen(lo, hi int) {
	if p.hi == 0 {
		p.lo, p.hi = uint16(lo), uint16(hi)
		return
	}
	if uint16(lo) < p.lo {
		p.lo = uint16(lo)
	}
	if uint16(hi) > p.hi {
		p.hi = uint16(hi)
	}
}

// bornPTE is the entry of a page that becomes resident on frame: its extent
// is the whole page.
func bornPTE(frame mem.FrameID) PTE { return PTE{Frame: frame, hi: mem.PageSize} }

// AddressSpace is one process's virtual memory: a sorted list of VMAs and a
// sparse page table. It is not safe for concurrent use.
type AddressSpace struct {
	phys  *mem.PhysMem
	costs Costs
	meter *sim.Meter

	vmas    []VMA     // sorted by Start, non-overlapping
	carved  []VMA     // carve's result scratch: the sub-regions it removed last
	lastVMA int       // index of the last FindVMA hit (self-validating cache)
	pages   pageTable // sparse chunked page table (see pagetable.go)

	brkBase Addr // start of the heap region (fixed)
	brk     Addr // current program break (page-aligned here)

	mmapNext Addr // next mmap allocation (grows downward)

	// uffd selects userfaultfd-style write tracking: armed write faults
	// are delivered to a user-space handler (more expensive per fault)
	// instead of being absorbed in the kernel as soft-dirty updates.
	uffd bool

	faults FaultStats

	// dirty is the incremental dirty set: every write fault that turns a
	// page's soft-dirty bit on logs the page number here. Under UFFD
	// tracking it is the simulated equivalent of the user-space fault
	// handler accumulating the dirty set during the request (which is why
	// UFFD dirty-set reads cost per dirty page instead of a pagemap scan);
	// under soft-dirty tracking the log carries no cost-model meaning —
	// the traced process still pays full pagemap-scan prices — but it lets
	// the simulator's restore data path skip the O(resident) walk whose
	// virtual cost it charges, which is what makes million-request fleet
	// runs wall-clock feasible. An mremap move logs the pages it moves in,
	// which it marks soft-dirty.
	dirty epochLog

	// fresh is the dirty log's residency twin: every page that transitions
	// from absent to resident (demand-zero faults, restore pokes, CoW frame
	// mappings, an mremap move's destination pages) is logged here, and so
	// is a resident page a poke moves to a new frame (a CoW break) — between
	// them, every entry born with a whole-page extent. The restore reads it
	// to find pages mapped in since the last epoch — the candidates for the
	// madvise drop set — without walking the resident set it is charging
	// for. A page dropped again leaves the table, appendLive filters it out,
	// and lost records it.
	fresh epochLog

	// lost is the fresh log's opposite: every page that left the table since
	// the last ClearSoftDirty, whichever syscall dropped it (madvise, munmap,
	// a brk shrink, the restorer's own injected munmap) or moved it away (an
	// mremap move), and whatever happened to the page afterwards. Losing a
	// resident page diverges memory from the snapshot without marking
	// anything dirty; the restorer reads this log, after it has put the
	// layout back, to find the snapshot pages that lost the frame the
	// snapshot saw.
	lost epochLog
}

// epochLog is a set of page numbers accumulated since the last
// ClearSoftDirty, which arms (and truncates) it. Entries are appended in
// event order and sorted lazily at read time; the dirty and fresh logs are
// validated against the page table on the way out (appendLive), so dropped
// pages and drop-then-refault duplicates never leak into a result, the lost
// log is read as it is (appendAll). armed means an epoch has started: the
// first ClearSoftDirty sets it and nothing clears it. Before that a log
// records nothing, so a runtime's warm-up does not fill it with every page
// it faults in.
type epochLog struct {
	vpns   []uint64
	sorted bool
	armed  bool
}

// add logs vpn while the log is armed, tracking whether insertion order has
// stayed sorted (sequential access patterns keep it sorted for free).
func (l *epochLog) add(vpn uint64) {
	if !l.armed {
		return
	}
	if n := len(l.vpns); n > 0 && vpn < l.vpns[n-1] {
		l.sorted = false
	}
	l.vpns = append(l.vpns, vpn)
}

// arm empties the log and starts a new epoch.
func (l *epochLog) arm() { l.vpns, l.sorted, l.armed = l.vpns[:0], true, true }

// sort puts the log in page order, once per run of out-of-order adds.
func (l *epochLog) sort() {
	if !l.sorted {
		slices.Sort(l.vpns)
		l.sorted = true
	}
}

// appendLive appends to dst, sorted and duplicate-free, the logged pages that
// are still resident and, with dirtyOnly, still soft-dirty.
func (l *epochLog) appendLive(dst []uint64, pt *pageTable, dirtyOnly bool) []uint64 {
	l.sort()
	start := len(dst)
	for _, vpn := range l.vpns {
		if n := len(dst); n > start && dst[n-1] == vpn {
			continue // logged twice: dropped and faulted back in within the epoch
		}
		if pte := pt.ref(vpn); pte != nil && (pte.SoftDirty || !dirtyOnly) {
			dst = append(dst, vpn)
		}
	}
	return dst
}

// appendAll appends to dst, sorted and duplicate-free, every logged page,
// resident or not. The log is a set, so it is compacted where it lies.
func (l *epochLog) appendAll(dst []uint64) []uint64 {
	if len(l.vpns) == 0 {
		return dst // the common epoch: nothing was dropped
	}
	l.sort()
	l.vpns = slices.Compact(l.vpns)
	return append(dst, l.vpns...)
}

// New returns an empty address space backed by phys with the given cost
// table. Its bookkeeping is a retired address space's, if the spare list
// holds one (see Retire); otherwise its lists grow from nil.
func New(phys *mem.PhysMem, costs Costs) *AddressSpace {
	b, _ := spareBooks.Take()
	return &AddressSpace{
		phys:     phys,
		costs:    costs,
		mmapNext: MmapTop,
		vmas:     b.vmas,
		carved:   b.carved,
		pages:    pageTable{chunks: b.chunks},
		dirty:    b.dirty,
		fresh:    b.fresh,
		lost:     b.lost,
	}
}

// books is what an address space keeps about its pages besides the pages
// themselves: the region list, carve's scratch, the page table's chunk list
// and the three epoch logs. On the spare list every slice has length 0 and
// its capacity, no VMA slot up to that capacity holds a name, no chunk slot
// a chunk, and every log is unarmed.
type books struct {
	vmas, carved       []VMA
	chunks             []*pageChunk
	dirty, fresh, lost epochLog
}

// spareBooks holds the books of retired address spaces for the next one New
// makes, whether for a spawn, a clone (NewFromLayout) or a Fork: a container
// torn down by scale-to-zero, a host failure or a drain leaves behind lists
// grown to a runtime's size, and the next cold start would otherwise grow its
// own from nothing, one doubling at a time.
var spareBooks spare.List[books]

// Retire releases the address space, as Release does, and passes its books
// to the spare list the next New draws from. Call it once, where the process
// is gone for good (the kernel's Exit): the address space keeps none of the
// lists it passed on, and if it is used again it grows new ones from nil.
func (as *AddressSpace) Retire() {
	as.Release()
	spareBooks.Put(books{
		vmas:   spare.Emptied(as.vmas),
		carved: spare.Emptied(as.carved),
		chunks: spare.Emptied(as.pages.chunks),
		dirty:  epochLog{vpns: as.dirty.vpns[:0]},
		fresh:  epochLog{vpns: as.fresh.vpns[:0]},
		lost:   epochLog{vpns: as.lost.vpns[:0]},
	})
	as.vmas, as.carved, as.pages.chunks = nil, nil, nil
	as.dirty, as.fresh, as.lost = epochLog{}, epochLog{}, epochLog{}
}

// Phys returns the backing physical memory pool.
func (as *AddressSpace) Phys() *mem.PhysMem { return as.phys }

// SetMeter attaches a cost meter; nil detaches. Subsequent faults and
// accesses charge to it.
func (as *AddressSpace) SetMeter(m *sim.Meter) { as.meter = m }

// Meter returns the attached cost meter (possibly nil).
func (as *AddressSpace) Meter() *sim.Meter { return as.meter }

// Faults returns the cumulative fault counters.
func (as *AddressSpace) Faults() FaultStats { return as.faults }

// ResetFaults zeroes the fault counters (used between measured requests).
func (as *AddressSpace) ResetFaults() { as.faults = FaultStats{} }

// SetUffdTracking selects userfaultfd-style write tracking (see
// Costs.UffdFault). Soft-dirty bookkeeping is unchanged; only the per-fault
// cost and the manager's collection strategy differ. The tracker is chosen
// before the first ClearSoftDirty: an epoch's dirty log stands for the
// faults its handler saw, so a switch once an epoch has started is a
// programming error and panics.
func (as *AddressSpace) SetUffdTracking(on bool) {
	if on != as.uffd && as.dirty.armed {
		panic("vm: SetUffdTracking after the first ClearSoftDirty")
	}
	as.uffd = on
}

// charge is the nil-safe meter helper.
func (as *AddressSpace) charge(d sim.Duration) { sim.ChargeTo(as.meter, d) }

// --- VMA list management -------------------------------------------------

// VMAs returns a copy of the region list, sorted by start address.
func (as *AddressSpace) VMAs() []VMA {
	out := make([]VMA, len(as.vmas))
	copy(out, as.vmas)
	return out
}

// AppendVMAs appends the region list (sorted by start address) to buf and
// returns the extended slice. Callers that reuse buf across calls read the
// layout without allocating; pass nil for a fresh copy.
func (as *AddressSpace) AppendVMAs(buf []VMA) []VMA {
	return append(buf, as.vmas...)
}

// NumVMAs returns the number of regions.
func (as *AddressSpace) NumVMAs() int { return len(as.vmas) }

// FindVMA returns a copy of the region containing a, if any. It is the
// inspection form, for callers that want the region's attributes; the access
// path uses findVMA's index and never copies a VMA.
func (as *AddressSpace) FindVMA(a Addr) (VMA, bool) {
	if i := as.findVMA(a); i >= 0 {
		return as.vmas[i], true
	}
	return VMA{}, false
}

// findVMA returns the index in as.vmas of the region containing a, or -1. A
// last-hit index makes the repeated lookups of a workload touching one region
// a single bounds check; the cache self-validates with Contains, so
// region-list mutations need no invalidation hook.
func (as *AddressSpace) findVMA(a Addr) int {
	if i := as.lastVMA; i < len(as.vmas) && as.vmas[i].Contains(a) {
		return i
	}
	i := as.searchVMA(a)
	if i < len(as.vmas) && as.vmas[i].Contains(a) {
		as.lastVMA = i
		return i
	}
	return -1
}

// searchVMA returns the index of the first region ending above a — the one
// containing a, if any does — or len(as.vmas).
func (as *AddressSpace) searchVMA(a Addr) int {
	return sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > a })
}

// insertVMA adds a region, keeping the list sorted. It fails if the region
// overlaps an existing one. Adjacent regions with identical attributes merge
// into one, as the Linux mm does — this keeps the region list canonical so
// that reverting an operation (e.g. an mprotect undone by the restorer)
// reproduces the original list exactly.
func (as *AddressSpace) insertVMA(v VMA) error {
	if err := v.validate(); err != nil {
		return err
	}
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].Start >= v.Start })
	if i > 0 && as.vmas[i-1].Overlaps(v) {
		return fmt.Errorf("vm: %v overlaps %v", v, as.vmas[i-1])
	}
	if i < len(as.vmas) && as.vmas[i].Overlaps(v) {
		return fmt.Errorf("vm: %v overlaps %v", v, as.vmas[i])
	}
	// Merge with the left and/or right neighbor when contiguous and
	// attribute-compatible.
	mergeLeft := i > 0 && as.vmas[i-1].End == v.Start && as.vmas[i-1].SameAttrs(v)
	mergeRight := i < len(as.vmas) && v.End == as.vmas[i].Start && v.SameAttrs(as.vmas[i])
	switch {
	case mergeLeft && mergeRight:
		as.vmas[i-1].End = as.vmas[i].End
		as.vmas = append(as.vmas[:i], as.vmas[i+1:]...)
	case mergeLeft:
		as.vmas[i-1].End = v.End
	case mergeRight:
		as.vmas[i].Start = v.Start
	default:
		as.vmas = append(as.vmas, VMA{})
		copy(as.vmas[i+1:], as.vmas[i:])
		as.vmas[i] = v
	}
	return nil
}

// carve removes [start, end) from the region list, splitting any VMAs that
// straddle the boundary. It returns the removed sub-regions, in a scratch
// slice that is valid until the next carve. Unmapped gaps inside the range
// are permitted (as with munmap). The list is spliced in place: the regions
// overlapping the range are one contiguous run [i, j) of it, replaced by what
// the first one keeps below start and the last one above end, so a munmap or
// mprotect on a warm address space allocates nothing.
func (as *AddressSpace) carve(start, end Addr) []VMA {
	removed := as.carved[:0]
	i := as.searchVMA(start)
	j := i
	for ; j < len(as.vmas) && as.vmas[j].Start < end; j++ {
		mid := as.vmas[j]
		mid.Start, mid.End = max(mid.Start, start), min(mid.End, end)
		removed = append(removed, mid)
	}
	as.carved = removed
	if i == j {
		return removed
	}
	var keep [2]VMA
	n := 0
	if left := as.vmas[i]; left.Start < start {
		left.End = start
		keep[n] = left
		n++
	}
	if right := as.vmas[j-1]; right.End > end {
		right.Start = end
		keep[n] = right
		n++
	}
	as.vmas = slices.Replace(as.vmas, i, j, keep[:n]...)
	return removed
}

// MappedPages returns the total number of pages covered by VMAs (the mapped
// address-space size the paper plots on the x-axis of Fig. 3 right).
func (as *AddressSpace) MappedPages() int {
	n := 0
	for _, v := range as.vmas {
		n += v.Pages()
	}
	return n
}

// ResidentPages returns the number of pages with a backing frame (RSS).
func (as *AddressSpace) ResidentPages() int { return as.pages.len() }

// --- access path ----------------------------------------------------------

// SegfaultError describes an access outside any region or violating its
// protection. Accesses panic with this type; the simulated kernel treats it
// as a fatal signal for the process, exactly as a real segfault would be.
type SegfaultError struct {
	Addr  Addr
	Write bool
}

func (e SegfaultError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("vm: segfault on %s at %s", op, e.Addr)
}

// fault ensures a resident, writable-as-needed PTE for vpn, charging fault
// costs, and returns the live entry (valid until the page is dropped). pte is
// vpn's current entry, nil if the page is not resident. It implements the
// demand-zero, CoW and soft-dirty fault paths.
func (as *AddressSpace) fault(vpn uint64, pte *PTE, write bool) *PTE {
	if pte == nil {
		// Demand-zero minor fault.
		pte = as.pages.set(vpn, bornPTE(as.phys.Alloc()))
		as.faults.Minor++
		as.charge(as.costs.MinorFault)
		as.fresh.add(vpn)
	}
	if pte.tlbCold {
		as.faults.FirstTouch++
		as.charge(as.costs.FirstTouch)
		pte.tlbCold = false
	}
	if write {
		if pte.cow {
			if as.phys.Refs(pte.Frame) > 1 {
				// Copy-on-write: clone and drop our reference to the
				// shared frame.
				newFrame := as.phys.Clone(pte.Frame)
				as.phys.Unref(pte.Frame)
				pte.Frame = newFrame
				as.faults.CoW++
				as.charge(as.costs.CoWFault)
			}
			// Sole owner: reuse the frame in place (Linux does the same).
			pte.cow = false
		}
		if pte.wpArmed {
			// Write-protect arming fault: the page was protected by
			// ClearSoftDirty; the first write records the dirty bit. Under
			// UFFD tracking the fault is serviced in user space and costs
			// considerably more.
			as.faults.SoftDirty++
			if as.uffd {
				as.charge(as.costs.UffdFault)
			} else {
				as.charge(as.costs.SoftDirtyFault)
			}
			pte.wpArmed = false
		}
		if !pte.SoftDirty {
			as.dirty.add(vpn)
		}
		pte.SoftDirty = true
	}
	return pte
}

// access is the function-side access loop: every load and store a function
// makes goes through it, as a list (TouchPages, WriteWords) or as one page
// (ReadWord, WriteWord, TouchPage, DirtyPage). For each page of vpns, in the
// order given, it
//
//   - resolves the region, once per run of pages inside the same one and by
//     index (no VMA is copied): a page outside every region, or in one whose
//     protection forbids the access, panics with SegfaultError at that
//     page's byte off, after the pages before it were accessed and charged;
//   - takes the fault path, unless the entry is resident, TLB-warm and — for a
//     write — already soft-dirty, disarmed and privately owned, which is the
//     state fault would leave it in;
//   - for a write, stores v at byte offset off and widens the page's
//     soft-dirty extent over the word. This is the only function-side write
//     to frame bytes, which is what lets the extent stand for "every byte
//     written since the last ClearSoftDirty".
//
// The per-access charge (ReadWord or WriteWord) is made once for the list:
// charges are integer sums, so the total is that of len(vpns) single
// accesses. It returns the last page's live entry (nil for an empty list).
func (as *AddressSpace) access(vpns []uint64, write bool, off int, v uint64) *PTE {
	need, cost := ProtRead, as.costs.ReadWord
	if write {
		need, cost = ProtWrite, as.costs.WriteWord
	}
	var pte *PTE
	var lo, hi uint64 // page span of the region resolved last
	for i, vpn := range vpns {
		if vpn < lo || vpn >= hi {
			a := PageAddr(vpn) + Addr(off)
			r := as.findVMA(a)
			if r < 0 || as.vmas[r].Prot&need == 0 {
				as.charge(sim.Duration(i) * cost)
				panic(SegfaultError{Addr: a, Write: write})
			}
			lo, hi = as.vmas[r].Start.PageNum(), as.vmas[r].End.PageNum()
		}
		pte = as.pages.ref(vpn)
		if pte == nil || pte.tlbCold || write && (!pte.SoftDirty || pte.wpArmed || pte.cow) {
			pte = as.fault(vpn, pte, write)
		}
		if write {
			as.phys.WriteWord(pte.Frame, off, v)
			pte.widen(off, off+mem.WordSize)
		}
	}
	as.charge(sim.Duration(len(vpns)) * cost)
	return pte
}

// TouchPages reads each page of vpns (in the order given, duplicates
// allowed): the read fault path per page and one ReadWord charge per page,
// exactly as len(vpns) TouchPage calls, resolved a region at a time.
func (as *AddressSpace) TouchPages(vpns []uint64) { as.access(vpns, false, 0, 0) }

// WriteWords stores v at byte offset off of each page of vpns (in the order
// given, duplicates allowed), exactly as len(vpns) WriteWord calls, resolved
// a region at a time.
func (as *AddressSpace) WriteWords(vpns []uint64, off int, v uint64) {
	as.access(vpns, true, off, v)
}

// ReadWord loads the 8-byte word at a, taking faults as needed.
func (as *AddressSpace) ReadWord(a Addr) uint64 {
	vpn := [1]uint64{a.PageNum()}
	pte := as.access(vpn[:], false, a.PageOff(), 0)
	return as.phys.ReadWord(pte.Frame, a.PageOff())
}

// WriteWord stores the 8-byte word v at a, taking faults as needed, and
// widens the page's soft-dirty extent over the word: the one-page form of
// WriteWords.
func (as *AddressSpace) WriteWord(a Addr, v uint64) {
	vpn := [1]uint64{a.PageNum()}
	as.access(vpn[:], true, a.PageOff(), v)
}

// TouchPage reads one byte's worth of a page (used by workloads that scan
// their address space): the one-page form of TouchPages.
func (as *AddressSpace) TouchPage(vpn uint64) {
	one := [1]uint64{vpn}
	as.access(one[:], false, 0, 0)
}

// DirtyPage writes one word at the start of a page (the microbenchmark's
// "dirty a page" primitive from §5.2).
func (as *AddressSpace) DirtyPage(vpn uint64, v uint64) {
	as.WriteWord(PageAddr(vpn), v)
}

// --- kernel-side access (ptrace / process_vm) -----------------------------

// PTEAt returns the page-table entry for vpn, if resident.
func (as *AddressSpace) PTEAt(vpn uint64) (PTE, bool) {
	return as.pages.get(vpn)
}

// PagemapEntry is one resident page's pagemap view: its page number. The
// page's soft-dirty state belongs to its page-table entry (PTEAt).
type PagemapEntry struct {
	VPN uint64
}

// AppendPagemapRange appends a PagemapEntry for every resident page in
// [lo, hi) to dst in sorted order and returns the extended slice. It is the
// bulk form of PTEAt for pagemap-style scans: the walk costs the resident
// pages of the range, not its span.
func (as *AddressSpace) AppendPagemapRange(lo, hi uint64, dst []PagemapEntry) []PagemapEntry {
	return as.pages.appendRange(lo, hi, dst)
}

// ResidentVPNs returns the sorted list of resident virtual page numbers.
func (as *AddressSpace) ResidentVPNs() []uint64 {
	return as.AppendResidentVPNs(make([]uint64, 0, as.pages.len()))
}

// AppendResidentVPNs appends the sorted resident virtual page numbers to dst
// and returns the extended slice. Callers that reuse dst across calls read
// the resident set without allocating. The chunked page table stores entries
// in address order, so the walk is linear and needs no sort.
func (as *AddressSpace) AppendResidentVPNs(dst []uint64) []uint64 {
	return as.pages.appendVPNs(dst)
}

// PeekPage copies the contents of page vpn into a fresh buffer, or returns
// nil if the page is all-zero or not resident. This is the kernel-side read
// used by the snapshotter; it does not fault, charge, or perturb soft-dirty
// state.
func (as *AddressSpace) PeekPage(vpn uint64) []byte {
	pte, ok := as.pages.get(vpn)
	if !ok {
		return nil
	}
	return as.phys.Snapshot(pte.Frame)
}

// PeekPageInto copies the contents of page vpn into buf (which must hold at
// least mem.PageSize bytes). It returns ok=false if the page is not resident;
// zero=true means the page is all-zero and buf was left untouched. Unlike
// PeekPage it never allocates: the snapshotter reads into a lent page and
// keeps it only if the read filled it.
func (as *AddressSpace) PeekPageInto(vpn uint64, buf []byte) (zero, ok bool) {
	pte, resident := as.pages.get(vpn)
	if !resident {
		return false, false
	}
	if as.phys.Bytes(pte.Frame) == 0 {
		return true, true
	}
	as.phys.ReadAt(pte.Frame, 0, buf[:mem.PageSize])
	return false, true
}

// pokePTE ensures vpn has a privately owned frame the restorer may overwrite:
// it allocates one for non-resident pages and breaks CoW sharing for shared
// ones, returning a pointer to the live (already stored) entry. In both
// cases the page has a new frame, so its extent becomes the whole page and
// the fresh log records it for the next ClearSoftDirty; a resident private
// page is returned as it is.
func (as *AddressSpace) pokePTE(vpn uint64) *PTE {
	pte := as.pages.ref(vpn)
	if pte == nil {
		as.fresh.add(vpn)
		return as.pages.set(vpn, bornPTE(as.phys.Alloc()))
	}
	if pte.cow && as.phys.Refs(pte.Frame) > 1 {
		f := as.phys.Clone(pte.Frame)
		as.phys.Unref(pte.Frame)
		pte.Frame = f
		pte.lo, pte.hi = 0, mem.PageSize
		as.fresh.add(vpn)
	}
	pte.cow = false
	return pte
}

// PokePageRun rolls the consecutive pages starting at startVPN back to
// pages, one page of bytes each (nil: all-zero), holding what the pages
// contained at the last ClearSoftDirty. It is the restorer's write — one call
// per coalesced run of pages, modeling a single process_vm_writev covering
// the run — and it copies, per page, only the soft-dirty extent: the bytes
// outside it were not written since that clear and equal the source already.
// The simulated kernel still copies (and the caller still charges) whole
// pages; the simulator stops re-copying bytes it knows are equal. Pages that
// became resident during the epoch carry the whole page as their extent, so
// they are copied in full. No allocation in steady state (resident,
// privately-owned pages).
func (as *AddressSpace) PokePageRun(startVPN uint64, pages []*[mem.PageSize]byte) {
	for i, page := range pages {
		pte := as.pokePTE(startVPN + uint64(i))
		var src []byte
		if page != nil {
			src = page[:]
		}
		as.phys.RestoreExtent(pte.Frame, src, int(pte.lo), int(pte.hi))
	}
}

// PokeFrameRun is PokePageRun with the caller-owned frames in src as the
// source (the CoW state store's restore): page startVPN+i receives the bytes
// of src[i] that lie inside its soft-dirty extent.
func (as *AddressSpace) PokeFrameRun(startVPN uint64, src []mem.FrameID) {
	for i, f := range src {
		pte := as.pokePTE(startVPN + uint64(i))
		as.phys.CopyExtent(pte.Frame, f, int(pte.lo), int(pte.hi))
	}
}

// ShareFrameCoW hands the caller a reference to vpn's backing frame and
// marks the page copy-on-write: the process's next write takes a copying
// fault, leaving the returned frame unmodified forever. This is the
// primitive behind the §5.5 state-store optimization — the snapshot *is* the
// frame, no eager copy. The caller owns one reference and must Unref it.
func (as *AddressSpace) ShareFrameCoW(vpn uint64) (mem.FrameID, bool) {
	pte := as.pages.ref(vpn)
	if pte == nil {
		return mem.NoFrame, false
	}
	as.phys.Ref(pte.Frame)
	pte.cow = true
	return pte.Frame, true
}

// DropPage removes the backing frame for vpn if resident (madvise DONTNEED
// semantics: the next touch demand-zero faults) and reports whether it was.
//
// Dropping a resident page silently diverges memory from the snapshot
// without marking anything dirty, so the drop is recorded in the lost log —
// whichever syscall dropped the page (madvise, munmap, a brk shrink) and
// whether or not the layout ends the request as it began. Every drop comes
// through here (Madvise, Munmap and a Brk shrink call it page by page), which
// is what lets AppendLostVPNs, with the moves Mremap logs, stand for "every
// page that lost its frame this epoch"; the restore merges them into its plan.
func (as *AddressSpace) DropPage(vpn uint64) bool {
	pte, ok := as.pages.delete(vpn)
	if ok {
		as.phys.Unref(pte.Frame)
		as.lost.add(vpn)
	}
	return ok
}

// --- soft-dirty tracking ---------------------------------------------------

// ClearSoftDirty clears every resident page's soft-dirty bit, empties its
// soft-dirty extent, and write-protects it so the next write faults and
// re-records the bit. It returns the number of entries walked. This models
// writing "4" to /proc/pid/clear_refs, and it starts an epoch: what the
// pages hold now is what "bytes outside the extent" will be compared to. It
// also empties the dirty, fresh and lost logs (the first call arms them): the
// faults, drops and moves from here on accumulate the next epoch's dirty,
// newly-resident and lost-frame sets incrementally, so reading them back
// never walks the page table.
// (Under UFFD tracking the dirty log is also the cost model — the
// user-space handler really does accumulate the set; under soft-dirty it
// is a simulator-internal index and the pagemap-scan prices still apply.)
func (as *AddressSpace) ClearSoftDirty() int {
	n := as.pages.len()
	if as.dirty.armed {
		// Every clear but the first: the full page-table walk is redundant.
		// Only pages written this epoch carry a soft-dirty bit (they are in
		// the dirty log), and the only resident pages whose write protection
		// is disarmed or whose extent is not empty are those same written
		// pages plus the pages that got a frame or a new number this epoch
		// (fresh log — demand-zero, poked and moved PTEs carry the whole
		// page as their extent). Everything else was reset by the previous
		// clear and untouched since; a dropped page has no entry left to
		// reset. The modeled clear_refs write still walks, which is why the
		// caller's ClearRefsPerPage charge uses the full resident count
		// either way.
		for _, log := range [][]uint64{as.dirty.vpns, as.fresh.vpns} {
			for _, vpn := range log {
				if pte := as.pages.ref(vpn); pte != nil {
					pte.clearSoftDirty()
				}
			}
		}
	} else {
		n = as.pages.clearSoftDirty()
	}
	as.dirty.arm()
	as.fresh.arm()
	as.lost.arm()
	return n
}

// AppendSoftDirtyVPNs appends the sorted page numbers whose soft-dirty bit
// is set to dst and returns the extended slice. Once an epoch has started
// the result comes from the dirty log — cost proportional to the dirty set,
// never a page-table walk; before the first ClearSoftDirty it is the
// page-table walk (linear over the chunked table, sorted by construction).
// Either way the appended region is sorted and duplicate-free, and callers
// that reuse dst across calls read the dirty set without allocating.
func (as *AddressSpace) AppendSoftDirtyVPNs(dst []uint64) []uint64 {
	if !as.dirty.armed {
		return as.pages.appendSoftDirtyVPNs(dst)
	}
	return as.dirty.appendLive(dst, &as.pages, true)
}

// AppendFreshVPNs appends the sorted, duplicate-free page numbers that
// became resident (or were moved to) since the last ClearSoftDirty and still
// are, to dst. It panics before the first ClearSoftDirty; the restore uses
// it to find madvise candidates without walking the resident set.
func (as *AddressSpace) AppendFreshVPNs(dst []uint64) []uint64 {
	if !as.fresh.armed {
		panic("vm: AppendFreshVPNs before the first ClearSoftDirty")
	}
	return as.fresh.appendLive(dst, &as.pages, false)
}

// AppendLostVPNs appends the sorted, duplicate-free page numbers that lost
// their frame since the last ClearSoftDirty — released by DropPage or moved
// away by Mremap — to dst. Unlike the other two logs it is not filtered by
// residency: a page dropped and faulted back in sits on a zero frame, a page
// dropped and left alone on none, and the restorer has to refill both. It
// panics before the first ClearSoftDirty.
func (as *AddressSpace) AppendLostVPNs(dst []uint64) []uint64 {
	if !as.lost.armed {
		panic("vm: AppendLostVPNs before the first ClearSoftDirty")
	}
	return as.lost.appendAll(dst)
}

// --- invariants -------------------------------------------------------------

// CheckInvariants validates internal consistency: sorted non-overlapping
// page-aligned VMAs, every resident page inside some VMA, and brk within the
// heap region. Tests call it after every mutation sequence.
func (as *AddressSpace) CheckInvariants() error {
	for i, v := range as.vmas {
		if err := v.validate(); err != nil {
			return err
		}
		if i > 0 && as.vmas[i-1].End > v.Start {
			return fmt.Errorf("vm: VMAs out of order or overlapping: %v then %v", as.vmas[i-1], v)
		}
	}
	total := 0
	for i, c := range as.pages.chunks {
		if c.base&chunkMask != 0 {
			return fmt.Errorf("vm: page-table chunk base %#x unaligned", c.base)
		}
		if i > 0 && as.pages.chunks[i-1].base >= c.base {
			return fmt.Errorf("vm: page-table chunks out of order at %#x", c.base)
		}
		pop := 0
		for _, w := range c.bitmap {
			pop += bits.OnesCount64(w)
		}
		if pop != c.n || c.n == 0 {
			return fmt.Errorf("vm: page-table chunk %#x population %d, bitmap %d", c.base, c.n, pop)
		}
		// Chunks are pooled across address spaces: a slot not present must
		// hold nothing of a former owner.
		for j := range c.entries {
			if !c.present(uint64(j)) && c.entries[j] != (PTE{}) {
				return fmt.Errorf("vm: page-table chunk %#x holds a stale entry at absent page %#x", c.base, c.base+uint64(j))
			}
		}
		total += c.n
	}
	if total != as.pages.total {
		return fmt.Errorf("vm: page-table total %d, chunks hold %d", as.pages.total, total)
	}
	for _, vpn := range as.pages.appendVPNs(nil) {
		if _, ok := as.FindVMA(PageAddr(vpn)); !ok {
			return fmt.Errorf("vm: resident page %#x outside any VMA", vpn)
		}
	}
	if as.brk != 0 {
		if as.brk < as.brkBase {
			return fmt.Errorf("vm: brk %v below heap base %v", as.brk, as.brkBase)
		}
	}
	return nil
}
