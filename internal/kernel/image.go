package kernel

import (
	"fmt"

	"groundhog/internal/faults"
	"groundhog/internal/mem"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

// ProcessImage describes a process to be spawned as a copy-on-write clone of
// a recorded snapshot: the memory layout and its anchors, the resident pages
// with the frames that back them, and per-thread register files. The
// description itself takes no frame reference; its holder does: a
// core.SnapshotImage and a CoW-store (or cloned) manager's snapshot each hold
// one reference per Frames entry, and every address space spawned from the
// image takes its own, so an image can seed any number of sibling processes.
type ProcessImage struct {
	Layout   []vm.VMA
	BrkBase  vm.Addr
	Brk      vm.Addr
	MmapBase vm.Addr
	// VPNs and Frames are parallel: page VPNs[i] is backed by Frames[i],
	// mapped copy-on-write into the clone. VPNs must be sorted.
	VPNs   []uint64
	Frames []mem.FrameID
	// Regs holds one register file per thread, in thread order.
	Regs []Regs
}

// SpawnFromImage creates a process directly from a snapshot image: the
// recorded layout is reproduced in one step and every recorded page maps the
// image's frame copy-on-write, so the clone shares physical memory with the
// donor until it writes. The charge — CloneFromSnapshotBase plus
// ClonePTEPerPage per recorded page — goes to meter if non-nil. This is the
// scale-out counterpart of Spawn: the full Fig. 1 pipeline runs once per
// deployment, and every further container is spawned from its image.
func (k *Kernel) SpawnFromImage(img ProcessImage, meter *sim.Meter) (*Process, error) {
	if len(img.VPNs) != len(img.Frames) {
		return nil, fmt.Errorf("kernel: image has %d pages but %d frames", len(img.VPNs), len(img.Frames))
	}
	if len(img.Regs) == 0 {
		return nil, fmt.Errorf("kernel: image has no threads")
	}
	sim.ChargeTo(meter, k.Cost.CloneFromSnapshotBase)

	// An armed fault plan can abort the spawn partway through mapping the
	// image's pages; Cut picks the depth so the unwind below is exercised
	// after any number of CoW mappings (including all of them).
	failAt := -1
	var spawnFault error
	if ferr := k.Faults.Fire(faults.SiteCloneSpawn); ferr != nil {
		failAt = k.Faults.Cut(faults.SiteCloneSpawn, len(img.VPNs)+1)
		spawnFault = ferr
	}

	as, err := vm.NewFromLayout(k.Phys, k.Cost.VM, img.Layout, img.BrkBase, img.Brk, img.MmapBase)
	if err != nil {
		return nil, err
	}
	p := &Process{PID: k.nextPID, AS: as, kern: k, alive: true}
	k.nextPID++
	for i, vpn := range img.VPNs {
		if i == failAt {
			as.Retire()
			return nil, fmt.Errorf("kernel: spawn from image aborted after %d of %d pages: %w", i, len(img.VPNs), spawnFault)
		}
		if err := as.MapFrameCoW(vpn, img.Frames[i]); err != nil {
			// Unwind the partial clone so the frame pool stays balanced.
			as.Retire()
			return nil, err
		}
		sim.ChargeTo(meter, k.Cost.ClonePTEPerPage)
	}
	if failAt == len(img.VPNs) {
		as.Retire()
		return nil, fmt.Errorf("kernel: spawn from image aborted after all %d pages: %w", len(img.VPNs), spawnFault)
	}
	for _, regs := range img.Regs {
		t := p.SpawnThread()
		t.Regs = regs
	}
	k.procs[p.PID] = p
	return p, nil
}
