// Package core implements Groundhog's contribution: a language- and
// runtime-agnostic, in-memory process snapshot/restore facility that gives
// FaaS functions sequential request isolation while preserving container
// reuse (§4 of the paper).
//
// A Manager owns one function process. After the runtime is initialized and
// warmed with a dummy request, TakeSnapshot records the process's complete
// state — memory layout, page contents, per-thread registers, the program
// break — in the manager's own memory (the StateStore). After every request,
// Restore rolls the process back: it interrupts the threads, reads
// /proc-style maps and pagemap, diffs the memory layout against the
// snapshot, reverses layout changes by injecting brk/mmap/munmap/madvise/
// mprotect syscalls over ptrace, copies back the contents of soft-dirty
// pages, clears the soft-dirty bits, restores registers, and detaches.
// Restore cost is therefore proportional to what the request actually
// changed, and all of it is off the request's critical path.
package core

import (
	"fmt"
	"slices"

	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/procfs"
	"groundhog/internal/ptrace"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

// Phase names for the restore breakdown, matching the legend of Fig. 8.
const (
	PhaseInterrupt   = "interrupting"
	PhaseReadMaps    = "reading maps"
	PhaseScanPages   = "scanning page metadata"
	PhaseDiff        = "diffing memory layouts"
	PhaseBrk         = "brk()"
	PhaseMmap        = "mmap()"
	PhaseMunmap      = "munmap()"
	PhaseMadvise     = "madvise()"
	PhaseMprotect    = "mprotect()"
	PhaseRestoreMem  = "restoring memory"
	PhaseClearSD     = "clearing soft-dirty bits"
	PhaseRestoreRegs = "restoring registers"
	PhaseDetach      = "detaching"
)

// Phases lists the restore phases in execution (and Fig. 8 legend) order.
var Phases = [...]string{
	PhaseInterrupt, PhaseReadMaps, PhaseScanPages, PhaseDiff,
	PhaseBrk, PhaseMmap, PhaseMunmap, PhaseMadvise, PhaseMprotect,
	PhaseRestoreMem, PhaseClearSD, PhaseRestoreRegs, PhaseDetach,
}

// PhaseBreakdown carries one duration per Phases entry, in the same order.
// It is a fixed-size value (not a map) so that returning RestoreStats from
// the restore hot path allocates nothing.
type PhaseBreakdown [len(Phases)]sim.Duration

// Of returns the duration recorded for the named phase (zero for names not
// in Phases).
func (b *PhaseBreakdown) Of(name string) sim.Duration {
	for i, ph := range Phases {
		if ph == name {
			return b[i]
		}
	}
	return 0
}

// TrackerKind selects the write-tracking mechanism.
type TrackerKind int

// Tracking mechanisms (§4.3). SoftDirty is the design the paper ships;
// Uffd is the alternative it prototyped and rejected, kept here for the
// ablation experiment.
const (
	TrackSoftDirty TrackerKind = iota
	TrackUffd
)

func (k TrackerKind) String() string {
	if k == TrackUffd {
		return "uffd"
	}
	return "soft-dirty"
}

// StoreKind selects how the StateStore holds the snapshot's page contents.
type StoreKind int

const (
	// StoreCopy eagerly copies every resident page into the manager's
	// memory at snapshot time — the implementation the paper evaluates.
	StoreCopy StoreKind = iota
	// StoreCoW shares the function's frames copy-on-write instead: zero
	// eager copying and memory overhead proportional to the pages the
	// function actually dirties, at the price of a one-time copying fault
	// on the critical path per unique modified page — the optimization
	// sketched in §5.5.
	StoreCoW
)

func (k StoreKind) String() string {
	if k == StoreCoW {
		return "cow"
	}
	return "copy"
}

// Options configures a Manager.
type Options struct {
	// Tracker selects the memory write-tracking mechanism.
	Tracker TrackerKind
	// Coalesce enables merging contiguous dirty pages into single larger
	// restore copies (the optimization behind the slope change at ~60%
	// dirtying in Fig. 3 left). On by default via DefaultOptions.
	Coalesce bool
	// Store selects the StateStore implementation (§5.5).
	Store StoreKind
}

// DefaultOptions returns the configuration the paper evaluates as GH.
func DefaultOptions() Options {
	return Options{Tracker: TrackSoftDirty, Coalesce: true, Store: StoreCopy}
}

// SnapshotStats reports the one-time snapshot cost (§5.5).
type SnapshotStats struct {
	Duration sim.Duration
	// Pages is the number of resident pages copied into the StateStore.
	Pages int
	// VMAs is the number of memory regions recorded.
	VMAs int
}

// RestoreStats reports one restore operation (Fig. 8's bars plus the page
// counters of Table 3).
type RestoreStats struct {
	Total sim.Duration
	// PhaseDurations holds each Phases entry's share of Total, indexed in
	// Phases order (PhaseDurations.Of(name) looks up by phase name).
	PhaseDurations PhaseBreakdown
	// MappedPages is the number of pages scanned in the pagemap.
	MappedPages int
	// DirtyPages is the number of soft-dirty pages found.
	DirtyPages int
	// RestoredPages is the number of pages whose contents were copied
	// back from the snapshot.
	RestoredPages int
	// DroppedPages is the number of newly paged-in pages madvised away.
	DroppedPages int
	// LayoutOps is the number of injected memory-management syscalls.
	LayoutOps int
}

// snapshot is everything needed to put the process back, held in the
// manager's memory (never serialized to disk — the property that
// distinguishes Groundhog from CRIU-style approaches, §6). Page contents
// live in the arena-backed stateStore.
type snapshot struct {
	layout []vm.VMA
	brk    vm.Addr
	// mmapBase is the address space's mmap placement cursor at snapshot
	// time, recorded so that a container cloned from this snapshot places
	// future mappings exactly where the donor would have.
	mmapBase vm.Addr
	regs     []kernel.Regs // one per thread, in Process.Threads order (append-only)
	store    stateStore
	stats    SnapshotStats
}

// Manager is the Groundhog manager process for one function process
// (the green box of Fig. 2). It is created attached (seized) and stays
// attached for the container's lifetime.
type Manager struct {
	kern *kernel.Kernel
	fs   *procfs.FS
	proc *kernel.Process
	opts Options

	tracer *ptrace.Tracer
	snap   *snapshot

	// scratch holds the reusable buffers that make steady-state Restore
	// allocation-free; see restoreScratch. TakeSnapshot routes its page
	// enumeration through the same buffers.
	scratch restoreScratch

	// storePool holds the previous snapshot's recycled store buffers (VPN
	// index, offsets, arena, frame slice) so re-snapshots fill one
	// manager-level arena instead of reallocating it each time.
	storePool stateStore
}

// NewManager attaches a manager to the function process. The process should
// be fully initialized (runtime started, dummy request executed) before
// TakeSnapshot is called.
func NewManager(k *kernel.Kernel, p *kernel.Process, opts Options) (*Manager, error) {
	return attach(k, p, opts, nil)
}

// attach seizes p and selects its write tracker, charging the seize to meter:
// the step a manager of a warm process and a manager of a cloned one share.
func attach(k *kernel.Kernel, p *kernel.Process, opts Options, meter *sim.Meter) (*Manager, error) {
	tr, err := ptrace.Seize(k, p, meter)
	if err != nil {
		return nil, err
	}
	if opts.Tracker == TrackUffd {
		p.AS.SetUffdTracking(true)
	}
	return &Manager{kern: k, fs: procfs.New(k), proc: p, opts: opts, tracer: tr}, nil
}

// Process returns the managed function process.
func (m *Manager) Process() *kernel.Process { return m.proc }

// HasSnapshot reports whether TakeSnapshot has completed.
func (m *Manager) HasSnapshot() bool { return m.snap != nil }

// SnapshotStats returns the stats of the recorded snapshot.
func (m *Manager) SnapshotStats() SnapshotStats {
	if m.snap == nil {
		return SnapshotStats{}
	}
	return m.snap.stats
}

// TakeSnapshot records the process's clean state (§4.2): it interrupts all
// threads, reads the memory map, copies every resident page into the
// StateStore, saves registers and the program break, arms write tracking,
// and resumes the process.
//
// Page contents land in one contiguous arena (or, for StoreCoW, a frame
// reference slice) indexed by a sorted VPN list, and the pagemap is read one
// VMA at a time rather than as a single full-address-space flag slice. Every
// buffer is sized before the copy loop, from counts the address space already
// holds: the index slices and the resident scratch list from ResidentPages,
// the arena from MaterializedPages — the pages that take arena bytes; a
// runtime's resident set is mostly lazily-zero frames (598 of Node's 156,766
// resident pages hold bytes), so sizing the arena by residency would allocate
// hundreds of megabytes to keep two. A first snapshot therefore allocates
// what it keeps, once each, instead of growing the arena a page at a time.
// Re-snapshots reuse the previous snapshot's recycled arena and index slices
// (the manager's store pool), so refreshing a snapshot at an unchanged scale
// allocates nothing for page contents.
func (m *Manager) TakeSnapshot() (SnapshotStats, error) {
	meter := sim.NewMeter()
	m.tracer.SetMeter(meter)
	defer m.tracer.SetMeter(nil)

	if err := m.tracer.InterruptAll(); err != nil {
		return SnapshotStats{}, err
	}

	// (b) scan /proc: memory regions. The one-time snapshot keeps the
	// render-and-parse text path, exercising the same userspace boundary
	// the real system reads /proc/pid/maps through.
	mapsText := m.fs.Maps(m.proc, meter)
	layout, err := procfs.ParseMaps(mapsText)
	if err != nil {
		return SnapshotStats{}, fmt.Errorf("core: snapshot maps: %w", err)
	}

	// (c) record resident pages in the StateStore: eager copies into the
	// arena, or CoW frame shares (§5.5) that defer the copy to the
	// function's first write of each page. The resident set is enumerated
	// with VMA-scoped pagemap scans under soft-dirty tracking, or — under
	// UFFD, whose manager never reads soft-dirty bits — with a mincore-style
	// resident walk through the address space's append accessor. Both paths
	// run through the manager's reusable scratch buffers, and page contents
	// land in the pooled arena recycled from the previous snapshot.
	snap := &snapshot{
		layout: layout,
		regs:   make([]kernel.Regs, 0, len(m.proc.Threads)),
	}
	sim.ChargeTo(meter, m.kern.Cost.SnapshotBase)
	sc := &m.scratch
	resident := m.proc.AS.ResidentPages()
	sc.present = slices.Grow(sc.present[:0], resident)
	if m.opts.Tracker == TrackUffd {
		sc.present = m.proc.AS.AppendResidentVPNs(sc.present)
		sim.ChargeTo(meter, m.kern.Cost.ResidentScanPerPage*sim.Duration(len(sc.present)))
	} else {
		for _, v := range layout {
			sc.pm = m.fs.PagemapRangePresent(m.proc, v.Start, v.End, meter, sc.pm[:0])
			for _, pf := range sc.pm {
				sc.present = append(sc.present, pf.VPN)
			}
		}
	}

	st := &snap.store
	*st, m.storePool = m.storePool, stateStore{}
	st.vpns = slices.Grow(st.vpns, resident)
	switch m.opts.Store {
	case StoreCoW:
		st.off, st.arena = nil, nil
		st.frames = slices.Grow(st.frames, resident)
		for _, vpn := range sc.present {
			f, ok := m.proc.AS.ShareFrameCoW(vpn)
			if !ok {
				return SnapshotStats{}, fmt.Errorf("core: page %#x vanished during snapshot", vpn)
			}
			st.vpns = append(st.vpns, vpn)
			st.frames = append(st.frames, f)
			sim.ChargeTo(meter, m.kern.Cost.SnapshotCoWPerPage)
		}
	default:
		st.frames = nil
		st.off = slices.Grow(st.off, resident)
		// The one growth of the arena, to the size the loop will leave it at
		// (the tracee is stopped, so the count holds); a pooled arena that is
		// large enough is kept, one that is not is dropped without copying
		// its dead contents over.
		if need := m.proc.AS.MaterializedPages() * mem.PageSize; cap(st.arena) < need {
			st.arena = make([]byte, 0, need)
		}
		for _, vpn := range sc.present {
			off := len(st.arena)
			// The page is read into the arena's spare capacity and kept only
			// if it holds bytes: all-zero (or vanished) pages take none, so
			// past the last materialised page the spare may be empty.
			zero, ok, err := m.tracer.PeekPageInto(vpn, st.arena[off:cap(st.arena)])
			if err != nil {
				return SnapshotStats{}, err
			}
			if ok && !zero {
				st.arena = st.arena[:off+mem.PageSize]
			} else {
				off = -1
			}
			st.vpns = append(st.vpns, vpn)
			st.off = append(st.off, off)
			sim.ChargeTo(meter, m.kern.Cost.SnapshotPerPage)
		}
	}

	// (a) store CPU state of all threads.
	for _, th := range m.proc.Threads {
		regs, err := m.tracer.GetRegs(th.TID)
		if err != nil {
			return SnapshotStats{}, err
		}
		snap.regs = append(snap.regs, regs)
	}
	if snap.brk, err = m.proc.AS.Brk(0); err != nil {
		return SnapshotStats{}, err
	}
	snap.mmapBase = m.proc.AS.MmapBase()

	// (d) reset write tracking, then resume.
	m.fs.ClearRefs(m.proc, meter)
	if err := m.tracer.Resume(); err != nil {
		return SnapshotStats{}, err
	}

	snap.stats = SnapshotStats{
		Duration: meter.Total(),
		Pages:    snap.store.len(),
		VMAs:     len(layout),
	}
	if m.snap != nil {
		m.storePool = m.snap.store.recycle(m.kern.Phys)
	}
	m.snap = snap
	return snap.stats, nil
}

// StateStoreBytes reports the StateStore's current materialized memory. For
// the eager store this is constant after the snapshot; for the CoW store it
// grows with the set of pages the function has ever modified (§5.5).
func (m *Manager) StateStoreBytes() int {
	if m.snap == nil {
		return 0
	}
	return m.snap.store.bytes(m.kern.Phys)
}

// Release drops the manager's snapshot, returning the StateStore's frame
// references (CoW stores, and clone stores sharing a snapshot image's
// frames) to physical memory. Container teardown calls it alongside the
// process's exit: the kernel frees the address space, Release frees the
// snapshot — together a removed container's frames all return to PhysMem.
// The manager must not snapshot or restore afterwards.
func (m *Manager) Release() {
	if m.snap == nil {
		return
	}
	m.snap.store.recycle(m.kern.Phys)
	m.snap = nil
}
