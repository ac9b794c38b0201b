package vm

import (
	"fmt"
	"math/bits"
	"slices"

	"groundhog/internal/mem"
	"groundhog/internal/sim"
)

// Memory-management operations. These are the syscalls Groundhog's restorer
// injects with ptrace to reverse layout changes (§4.4): brk, mmap, munmap,
// madvise, mprotect. Each charges the base syscall cost plus a per-page
// walk cost when invoked with a non-nil meter attached.

// chargeSyscall charges the cost of one mm syscall covering n pages.
func (as *AddressSpace) chargeSyscall(pages int) {
	as.charge(as.costs.Syscall)
	if pages > 0 {
		as.charge(as.costs.PerPageOp * sim.Duration(pages))
	}
}

// Mmap creates a new anonymous region of the given size (rounded up to whole
// pages) and returns its start address. Addresses are assigned top-down from
// the mmap area, like the kernel's default mmap placement.
func (as *AddressSpace) Mmap(bytes int, prot Prot, kind Kind, name string) (Addr, error) {
	if bytes <= 0 {
		return 0, fmt.Errorf("vm: mmap of %d bytes", bytes)
	}
	size := PageCeil(bytes)
	start := as.mmapNext - Addr(size)
	v := VMA{Start: start, End: as.mmapNext, Prot: prot, Kind: kind, Name: name}
	if err := as.insertVMA(v); err != nil {
		return 0, err
	}
	as.mmapNext = start
	as.chargeSyscall(v.Pages())
	return start, nil
}

// MmapFixed creates a region at an exact address. It fails if the range
// overlaps an existing region. The restorer uses it to re-create regions the
// function unmapped.
func (as *AddressSpace) MmapFixed(start Addr, bytes int, prot Prot, kind Kind, name string) error {
	if bytes <= 0 {
		return fmt.Errorf("vm: mmap of %d bytes", bytes)
	}
	v := VMA{Start: start, End: start + Addr(PageCeil(bytes)), Prot: prot, Kind: kind, Name: name}
	if err := as.insertVMA(v); err != nil {
		return err
	}
	as.chargeSyscall(v.Pages())
	return nil
}

// Munmap removes all mappings overlapping [start, start+bytes), splitting
// regions that straddle the boundary and releasing backing frames.
// Unmapping a range with no mappings is a no-op, as with the syscall.
func (as *AddressSpace) Munmap(start Addr, bytes int) error {
	if !start.Aligned() || bytes <= 0 {
		return fmt.Errorf("vm: bad munmap range %v+%d", start, bytes)
	}
	end := start + Addr(PageCeil(bytes))
	removed := as.carve(start, end)
	pages := 0
	for _, v := range removed {
		for vpn := v.Start.PageNum(); vpn < v.End.PageNum(); vpn++ {
			as.DropPage(vpn)
		}
		pages += v.Pages()
	}
	as.chargeSyscall(pages)
	return nil
}

// SetupHeap establishes the brk-managed heap region starting at base with an
// initial size of zero. It must be called before Brk.
func (as *AddressSpace) SetupHeap(base Addr) error {
	if !base.Aligned() {
		return fmt.Errorf("vm: unaligned heap base %v", base)
	}
	if as.brkBase != 0 {
		return fmt.Errorf("vm: heap already set up at %v", as.brkBase)
	}
	as.brkBase = base
	as.brk = base
	return nil
}

// Brk moves the program break to newBrk (rounded up to a page). Passing 0
// queries the current break without changing it. Growing extends the heap
// region; shrinking releases pages above the new break. The heap VMA itself
// appears once the break first rises above the base.
func (as *AddressSpace) Brk(newBrk Addr) (Addr, error) {
	if as.brkBase == 0 {
		return 0, fmt.Errorf("vm: heap not set up")
	}
	if newBrk == 0 {
		return as.brk, nil
	}
	if newBrk < as.brkBase {
		return as.brk, fmt.Errorf("vm: brk %v below heap base %v", newBrk, as.brkBase)
	}
	target := Addr(PageCeil(int(newBrk-as.brkBase))) + as.brkBase
	old := as.brk
	switch {
	case target == old:
		// no-op
	case target > old:
		// Grow: map [old, target), merging with the heap region below it.
		// As with the syscall, nothing below the old break changes: a hole
		// a munmap left there stays a hole.
		if err := as.insertVMA(VMA{Start: old, End: target, Prot: ProtRW, Kind: KindHeap}); err != nil {
			return as.brk, err
		}
		as.brk = target
	default:
		// Shrink: drop pages in [target, old) and trim the region.
		as.carve(target, old)
		for vpn := target.PageNum(); vpn < old.PageNum(); vpn++ {
			as.DropPage(vpn)
		}
		as.brk = target
	}
	as.chargeSyscall(0)
	return as.brk, nil
}

// BrkValue returns the current program break.
func (as *AddressSpace) BrkValue() Addr { return as.brk }

// HeapBase returns the heap base established by SetupHeap.
func (as *AddressSpace) HeapBase() Addr { return as.brkBase }

// Madvise applies DONTNEED semantics to [start, start+bytes): backing frames
// are released while the mapping remains; the next touch demand-zero
// faults. (This is the only advice the restorer needs.)
func (as *AddressSpace) Madvise(start Addr, bytes int) error {
	if !start.Aligned() || bytes <= 0 {
		return fmt.Errorf("vm: bad madvise range %v+%d", start, bytes)
	}
	end := start + Addr(PageCeil(bytes))
	pages := 0
	for vpn := start.PageNum(); vpn < end.PageNum(); vpn++ {
		if as.DropPage(vpn) {
			pages++
		}
	}
	as.chargeSyscall(pages)
	return nil
}

// Mprotect changes the protection of every whole region page in
// [start, start+bytes), splitting straddling regions.
func (as *AddressSpace) Mprotect(start Addr, bytes int, prot Prot) error {
	if !start.Aligned() || bytes <= 0 {
		return fmt.Errorf("vm: bad mprotect range %v+%d", start, bytes)
	}
	end := start + Addr(PageCeil(bytes))
	removed := as.carve(start, end)
	pages := 0
	for _, v := range removed {
		v.Prot = prot
		if err := as.insertVMA(v); err != nil {
			return err
		}
		pages += v.Pages()
	}
	as.chargeSyscall(pages)
	return nil
}

// Mremap resizes the region beginning at start from oldBytes to newBytes
// (both rounded up to pages). Growth extends in place when the following
// address range is free, otherwise the mapping moves to a fresh range (the
// MREMAP_MAYMOVE behaviour) with its resident pages carried along. Shrinking
// releases the tail pages. The returned address is the mapping's (possibly
// new) start.
//
// Restoration handles both outcomes with its ordinary layout diff: an
// extension or a moved copy appears as a new range to munmap plus a missing
// range to re-create (§4.4's "grown, shrunk, merged, split" regions). A move
// is logged like any other epoch event (see the loop below), so the restore
// that follows stays on the epoch logs.
func (as *AddressSpace) Mremap(start Addr, oldBytes, newBytes int) (Addr, error) {
	if !start.Aligned() || oldBytes <= 0 || newBytes <= 0 {
		return 0, fmt.Errorf("vm: bad mremap %v %d->%d", start, oldBytes, newBytes)
	}
	oldSize := PageCeil(oldBytes)
	newSize := PageCeil(newBytes)
	v, ok := as.FindVMA(start)
	if !ok || v.Start != start || v.Len() < oldSize {
		return 0, fmt.Errorf("vm: mremap of unmapped or mismatched region at %v", start)
	}
	switch {
	case newSize == oldSize:
		as.chargeSyscall(0)
		return start, nil
	case newSize < oldSize:
		if err := as.Munmap(start+Addr(newSize), oldSize-newSize); err != nil {
			return 0, err
		}
		return start, nil
	}
	// Grow: try in place.
	ext := VMA{Start: start + Addr(oldSize), End: start + Addr(newSize), Prot: v.Prot, Kind: v.Kind, Name: v.Name}
	if err := as.insertVMA(ext); err == nil {
		as.chargeSyscall(ext.Pages())
		return start, nil
	}
	// Move: map a fresh range, migrate resident pages, unmap the old one.
	dst := as.mmapNext - Addr(newSize)
	moved := VMA{Start: dst, End: as.mmapNext, Prot: v.Prot, Kind: v.Kind, Name: v.Name}
	if err := as.insertVMA(moved); err != nil {
		return 0, err
	}
	as.mmapNext = dst
	// A moved page leaves its old number without a drop (lost) and arrives
	// at a new one as if born this epoch (fresh), soft-dirty as Linux marks
	// a moved PTE (move_soft_dirty_pte) and so dirty as well. Its extent
	// becomes the whole page: the bytes outside a carried extent would equal
	// the old address's contents at the last clear, not the new one's.
	for vpn := start.PageNum(); vpn < (start + Addr(oldSize)).PageNum(); vpn++ {
		pte, ok := as.pages.delete(vpn)
		if !ok {
			continue
		}
		to := dst.PageNum() + (vpn - start.PageNum())
		as.lost.add(vpn)
		as.fresh.add(to)
		as.dirty.add(to)
		pte.SoftDirty, pte.lo, pte.hi = true, 0, mem.PageSize
		as.pages.set(to, pte)
	}
	as.carve(start, start+Addr(oldSize))
	as.chargeSyscall(oldSize / mem.PageSize)
	return dst, nil
}

// SetupStack maps the initial stack region below StackTop and returns it.
func (as *AddressSpace) SetupStack(bytes int) (VMA, error) {
	size := PageCeil(bytes)
	v := VMA{Start: StackTop - Addr(size), End: StackTop, Prot: ProtRW, Kind: KindStack}
	if err := as.insertVMA(v); err != nil {
		return VMA{}, err
	}
	return v, nil
}

// SetupText maps a read-execute text region of the given size at TextBase.
func (as *AddressSpace) SetupText(bytes int) (VMA, error) {
	v := VMA{Start: TextBase, End: TextBase + Addr(PageCeil(bytes)), Prot: ProtRead | ProtExec, Kind: KindText}
	if err := as.insertVMA(v); err != nil {
		return VMA{}, err
	}
	return v, nil
}

// Fork clones the address space copy-on-write: the child shares every
// resident frame with the parent, both sides' writable pages become CoW, and
// the child's pages are TLB-cold so its first access to each page pays the
// FirstTouch cost (the fork-isolation overhead of §5.2.3). Fault counters
// and the meter are not inherited.
func (as *AddressSpace) Fork() *AddressSpace {
	child := New(as.phys, as.costs)
	child.vmas = append(child.vmas, as.vmas...)
	child.brkBase, child.brk = as.brkBase, as.brk
	child.mmapNext = as.mmapNext
	child.pages.chunks = slices.Grow(child.pages.chunks, len(as.pages.chunks))
	for _, c := range as.pages.chunks {
		cc := getChunk()
		cc.base, cc.n, cc.bitmap = c.base, c.n, c.bitmap
		for w, word := range c.bitmap {
			for ; word != 0; word &= word - 1 {
				i := uint64(w<<6) + uint64(bits.TrailingZeros64(word))
				pte := &c.entries[i]
				as.phys.Ref(pte.Frame)
				if r := as.findVMA(PageAddr(c.base + i)); r >= 0 && as.vmas[r].Prot&ProtWrite != 0 {
					pte.cow = true
				}
				// Parent keeps its TLB state; the child starts cold.
				childPTE := *pte
				childPTE.tlbCold = true
				cc.entries[i] = childPTE
			}
		}
		child.pages.chunks = append(child.pages.chunks, cc)
	}
	child.pages.total = as.pages.total
	return child
}

// Release drops every backing frame and every region, leaving the address
// space empty and usable. The page table's chunks, cleared, go to the
// process-wide pool the next address space draws from. The region and chunk
// lists and the epoch logs stay with the address space, which reuses them if
// it is used again; Retire, for a process gone for good, passes them on.
func (as *AddressSpace) Release() {
	as.pages.release(as.phys)
	clear(as.vmas)
	as.vmas = as.vmas[:0]
}
