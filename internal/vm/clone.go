package vm

import (
	"fmt"

	"groundhog/internal/mem"
)

// Snapshot-clone support: constructing an address space directly from a
// recorded memory image instead of replaying the syscalls that built it.
// This is the substrate of cross-container frame sharing — a new container
// of a deployment maps the donor snapshot's frames copy-on-write, so sibling
// containers of the same function share every page neither has written.

// MmapBase returns the current mmap placement cursor (the next anonymous
// mapping is placed immediately below it). Snapshots record it so that a
// cloned address space places future mappings exactly where the donor
// would have.
func (as *AddressSpace) MmapBase() Addr { return as.mmapNext }

// NewFromLayout constructs an address space that reproduces a recorded
// layout in one step: the given regions, heap anchors, and mmap placement
// cursor, with an empty page table. The layout must be sorted and
// non-overlapping (as vm.VMAs and a /proc maps read always are). Callers
// populate pages afterwards, typically with MapFrameCoW against a donor
// snapshot's frames.
func NewFromLayout(phys *mem.PhysMem, costs Costs, layout []VMA, brkBase, brk, mmapBase Addr) (*AddressSpace, error) {
	as := New(phys, costs)
	for _, v := range layout {
		if err := as.insertVMA(v); err != nil {
			return nil, fmt.Errorf("vm: clone layout: %w", err)
		}
	}
	if brkBase != 0 {
		if !brkBase.Aligned() {
			return nil, fmt.Errorf("vm: clone layout: unaligned heap base %v", brkBase)
		}
		if brk < brkBase {
			return nil, fmt.Errorf("vm: clone layout: brk %v below heap base %v", brk, brkBase)
		}
		as.brkBase = brkBase
		as.brk = brk
	}
	if mmapBase != 0 {
		as.mmapNext = mmapBase
	}
	if err := as.CheckInvariants(); err != nil {
		return nil, err
	}
	return as, nil
}

// MapFrameCoW installs frame as the backing of page vpn, shared
// copy-on-write: the address space takes its own reference, and the
// process's first write to the page takes a copying fault, leaving the
// donor frame unmodified forever. The page starts TLB-cold, like a forked
// child's, so the first access also pays the FirstTouch cost. The page must
// lie inside a region and must not already be resident.
func (as *AddressSpace) MapFrameCoW(vpn uint64, frame mem.FrameID) error {
	if _, ok := as.FindVMA(PageAddr(vpn)); !ok {
		return fmt.Errorf("vm: MapFrameCoW of page %#x outside any region", vpn)
	}
	if _, ok := as.pages.get(vpn); ok {
		return fmt.Errorf("vm: MapFrameCoW of already-resident page %#x", vpn)
	}
	as.phys.Ref(frame)
	as.fresh.add(vpn)
	pte := bornPTE(frame)
	pte.cow, pte.tlbCold = true, true
	as.pages.set(vpn, pte)
	return nil
}
