package core

import (
	"fmt"

	"groundhog/internal/faults"
	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/sim"
)

// SnapshotImage is a self-contained, shareable copy of a manager's snapshot:
// the kernel.ProcessImage a sibling is spawned from — layout and anchors,
// per-thread registers, one frame per recorded page — plus ownership of those
// frames. Sibling containers of the same function are spawned from it
// (NewManagerFromSnapshot) without re-running environment, runtime, or data
// initialization — and every clone maps the image's frames CoW, so a fleet's
// physical memory grows with the pages containers actually dirty, not with
// the container count.
//
// The image owns one reference per frame entry until its one holder calls
// Release. It stays valid after the donor container (and even its manager)
// is gone.
type SnapshotImage struct {
	desc     kernel.ProcessImage
	phys     *mem.PhysMem
	released bool

	// sum is the integrity checksum over the image's page identities and
	// frame contents, recorded at export time on fault-armed platforms only
	// (summed marks that it was). corrupted models bit-rot: the shared
	// frames are left untouched (sibling containers mapping them CoW must
	// not be affected), but Verify fails until the image is evicted.
	sum       uint64
	summed    bool
	corrupted bool
}

// Released reports whether the image's frames have already been returned to
// physical memory (image released / evicted).
func (img *SnapshotImage) Released() bool { return img.released }

// MarkCorrupted flags the image as having suffered frame corruption — the
// simulator's stand-in for bit-rot or a torn write. Detection and recovery
// are the callers' job: the next Verify fails, and faas responds by evicting
// the image and falling back to the full cold-start pipeline.
func (img *SnapshotImage) MarkCorrupted() { img.corrupted = true }

// Verify re-checks the image's integrity before a clone. A corrupted image
// always fails. When a checksum was recorded at export (fault-armed
// platforms), the sum is recomputed over the live frames — charging perPage
// per page to meter — and compared; a disarmed export recorded no checksum,
// so Verify is free and trusts the image.
func (img *SnapshotImage) Verify(perPage sim.Duration, meter *sim.Meter) bool {
	if img.corrupted {
		return false
	}
	if !img.summed {
		return true
	}
	sim.ChargeTo(meter, perPage*sim.Duration(len(img.desc.Frames)))
	return img.computeSum() == img.sum
}

// fnvPrime64 is the 64-bit FNV prime used by the image checksum.
const fnvPrime64 = 1099511628211

// mixSum folds one 64-bit value into the running FNV-1a image checksum.
func mixSum(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	return h
}

// computeSum hashes the image's page identities and frame contents.
func (img *SnapshotImage) computeSum() uint64 {
	h := uint64(1469598103934665603)
	for i, vpn := range img.desc.VPNs {
		h = mixSum(h, vpn)
		h = mixSum(h, img.phys.Checksum(img.desc.Frames[i]))
	}
	return h
}

// Release returns the image's frame references to physical memory (a frame
// whose only remaining reference was the image's is freed — eviction on
// scale-to-zero). Processes already spawned from the image keep their own
// references and are unaffected. Release on an already-released image is a
// no-op.
func (img *SnapshotImage) Release() {
	if img.released {
		return
	}
	img.released = true
	for _, f := range img.desc.Frames {
		img.phys.Unref(f)
	}
	img.desc.Frames = nil
}

// unwind gives back what a partially built image holds after an injected
// fault cut its frame loop short, so the frame pool stays balanced (no
// holder, no leak), and reports how far the loop got.
func (img *SnapshotImage) unwind(what string, cause error) error {
	n := len(img.desc.Frames)
	img.Release()
	return fmt.Errorf("core: %s aborted after %d pages: %w", what, n, cause)
}

// ExportImage copies the manager's snapshot into a shareable SnapshotImage.
//
// For the CoW state store (§5.5) the export is almost free: the snapshot
// already *is* a set of frozen frames, so the image just takes references
// (SnapshotCoWPerPage each). For the eager copy store the page contents live
// in the manager's lent pages, not in frames, so the export materializes one
// frame per non-zero page (SnapshotPerPage each — a one-time, per-deployment
// cost amortized across every subsequent clone); all-zero pages share a single
// lazily-zero frame, the moral equivalent of the kernel zero page, charged
// like a CoW reference (the refcount bump is the same work whether the frame
// holds content or not). The snapshot is itself a kernel.ProcessImage whose
// layout, page numbers and registers never change once recorded, so the
// image starts as a copy of it, sharing those slices, and builds only its
// own Frames.
func (m *Manager) ExportImage(meter *sim.Meter) (*SnapshotImage, error) {
	if m.snap == nil {
		return nil, fmt.Errorf("core: export before snapshot")
	}
	snap, phys, cost := m.snap, m.kern.Phys, &m.kern.Cost
	if len(m.proc.Threads) != len(snap.Regs) {
		return nil, fmt.Errorf("core: export: %d threads, snapshot had %d", len(m.proc.Threads), len(snap.Regs))
	}
	img := &SnapshotImage{phys: phys, desc: snap.ProcessImage}
	img.desc.Frames = make([]mem.FrameID, 0, snap.len())

	// An armed fault plan can abort the export before any page, between two,
	// or after the last.
	failAt := -1
	var fault error
	if fault = m.kern.Faults.Fire(faults.SiteSnapshotExport); fault != nil {
		failAt = m.kern.Faults.Cut(faults.SiteSnapshotExport, snap.len()+1)
	}
	zeroFrame := mem.NoFrame
	for i := 0; ; i++ {
		if i == failAt {
			return nil, img.unwind("snapshot export", fault)
		}
		if i == snap.len() {
			break
		}
		var f mem.FrameID
		charge := cost.SnapshotCoWPerPage
		switch {
		case snap.Frames != nil:
			f = snap.Frames[i]
			phys.Ref(f)
		case snap.pages[i] != nil:
			f = phys.Alloc()
			phys.RestoreInto(f, snap.pages[i][:])
			charge = cost.SnapshotPerPage
		case zeroFrame == mem.NoFrame:
			zeroFrame = phys.Alloc()
			f = zeroFrame
		default:
			f = zeroFrame
			phys.Ref(f)
		}
		img.desc.Frames = append(img.desc.Frames, f)
		sim.ChargeTo(meter, charge)
	}

	// The integrity checksum is recorded on fault-armed platforms only
	// (charging ChecksumPerPage per page); disarmed platforms skip it
	// entirely, keeping the export byte-identical to a build without seams.
	if m.kern.Faults.Armed() {
		img.sum = img.computeSum()
		img.summed = true
		sim.ChargeTo(meter, cost.ChecksumPerPage*sim.Duration(snap.len()))
	}
	return img, nil
}

// CopyImageTo replicates a snapshot image into another kernel's physical
// memory — the cluster's image pull. The copy allocates its own frames on
// the destination host (one per *distinct* source frame: pages sharing a
// frame, like the all-zero pages riding the lazily-zero frame, share the
// copy too, so the destination's frame sharing mirrors the source's) and
// carries the description, checksum, and corruption state unchanged — the
// checksum is content-based, so a clean transfer still verifies on the
// destination. The transfer is charged to meter as ImageTransferBase plus
// ImageTransferPerFrame per distinct frame shipped.
//
// The returned image is the destination's to Release and is independent of
// the source: evicting either side afterwards leaves the other untouched. An
// armed SiteImageTransfer fault on the destination kernel aborts the copy
// partway through; the partial copy's frames are unwound so the
// destination's frame pool stays balanced.
func CopyImageTo(dst *kernel.Kernel, img *SnapshotImage, meter *sim.Meter) (*SnapshotImage, error) {
	if img == nil || img.released {
		return nil, fmt.Errorf("core: transfer of released snapshot image")
	}
	src := img.desc.Frames
	sim.ChargeTo(meter, dst.Cost.ImageTransferBase)
	// Layout, page numbers and registers never change once exported, so the
	// copy shares them; only the frames are re-homed.
	out := *img
	out.phys = dst.Phys
	out.desc.Frames = make([]mem.FrameID, 0, len(src))

	failAt := -1
	var fault error
	if fault = dst.Faults.Fire(faults.SiteImageTransfer); fault != nil {
		failAt = dst.Faults.Cut(faults.SiteImageTransfer, len(src)+1)
	}
	copied := make(map[mem.FrameID]mem.FrameID, len(src))
	var page [mem.PageSize]byte // each frame's bytes on their way between pools
	for i := 0; ; i++ {
		if i == failAt {
			return nil, out.unwind("image transfer", fault)
		}
		if i == len(src) {
			break
		}
		nf, ok := copied[src[i]]
		if ok {
			dst.Phys.Ref(nf)
		} else {
			nf = dst.Phys.Alloc()
			if !img.phys.IsZero(src[i]) {
				img.phys.ReadAt(src[i], 0, page[:])
				dst.Phys.RestoreInto(nf, page[:])
			}
			copied[src[i]] = nf
			sim.ChargeTo(meter, dst.Cost.ImageTransferPerFrame)
		}
		out.desc.Frames = append(out.desc.Frames, nf)
	}
	return &out, nil
}

// NewManagerFromSnapshot is the snapshot-clone cold start: it spawns a fresh
// process whose address space maps the image's frames copy-on-write
// (kernel.SpawnFromImage, charging CloneFromSnapshotBase + ClonePTEPerPage
// per page), seizes it, installs the image as its snapshot — sharing its
// slices, which nothing writes once exported, and taking its own reference
// on every frame, so restoring a clone copies from the same physical pages
// every sibling reads — and arms write tracking: the manager ends exactly
// where TakeSnapshot leaves a fully-initialized sibling, at a small fraction
// of the cost. Init/TakeSnapshot must NOT be called on the result; the
// snapshot is already present.
func NewManagerFromSnapshot(k *kernel.Kernel, img *SnapshotImage, opts Options, meter *sim.Meter) (*Manager, error) {
	if img == nil || img.released {
		return nil, fmt.Errorf("core: clone from released snapshot image")
	}
	d := &img.desc
	proc, err := k.SpawnFromImage(*d, meter)
	if err != nil {
		return nil, err
	}
	m, err := attach(k, proc, opts, meter)
	if err != nil {
		k.Exit(proc)
		return nil, err
	}

	m.snap = &snapshot{ProcessImage: *d}
	for _, f := range d.Frames {
		k.Phys.Ref(f)
	}

	// Arm write tracking, exactly as TakeSnapshot does after recording.
	m.fs.ClearRefs(proc, meter)
	return m, nil
}
