// Package procfs exposes the simulated kernel's per-process state the way
// Linux's /proc filesystem does: the maps file (memory regions), the pagemap
// file (which pages are present), and the clear_refs control file.
// Groundhog's manager consumes exactly these three interfaces (§4.2, §4.3 of
// the paper).
//
// PagemapRangePresent is the one pagemap reader: core.TakeSnapshot enumerates
// the resident pages with it, a region at a time. An entry is a resident
// page's number; the page's soft-dirty state belongs to its page-table entry
// (vm.AddressSpace.PTEAt). core.Restore charges the same per-region,
// per-mapped-page price for its scan but takes its resident and dirty sets
// from the address space's own indexes instead of reading the file again.
//
// MapsRegions is the one maps reader: core.TakeSnapshot records the layout
// with it and core.Restore reads the current layout with it, at the same
// price — the cost of opening /proc/pid/maps plus one line per region.
package procfs

import (
	"groundhog/internal/kernel"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

// FS reads per-process files from a simulated kernel.
type FS struct {
	kern *kernel.Kernel
}

// New returns a /proc view over k.
func New(k *kernel.Kernel) *FS { return &FS{kern: k} }

// MapsRegions reads p's memory layout, one region per /proc/pid/maps line,
// appending to buf (so a caller that reuses buf across calls allocates
// nothing) and returning the extended slice. It charges ReadMapsBase plus
// ReadMapsPerVMA per region.
func (fs *FS) MapsRegions(p *kernel.Process, meter *sim.Meter, buf []vm.VMA) []vm.VMA {
	sim.ChargeTo(meter, fs.kern.Cost.ReadMapsBase)
	sim.ChargeTo(meter, fs.kern.Cost.ReadMapsPerVMA*sim.Duration(p.AS.NumVMAs()))
	return p.AS.AppendVMAs(buf)
}

// PagemapRangePresent reads the pagemap entries for [start, end), appending
// one vm.PagemapEntry per present page to buf and returning the extended
// slice, so a caller that reuses buf allocates nothing. An entry is the
// page's number; its soft-dirty state belongs to its PTE (PTEAt). It walks
// the page table's resident chunks instead of testing every page of the
// span, but the charge is the file read's: PagemapRangeBase (the seek to the
// range's offset) plus PagemapPerPage for every page of the span, present or
// not — the reason scan cost grows with address-space size even at a fixed
// write-set size (Fig. 3 right, §5.2.2).
func (fs *FS) PagemapRangePresent(p *kernel.Process, start, end vm.Addr, meter *sim.Meter, buf []vm.PagemapEntry) []vm.PagemapEntry {
	buf = p.AS.AppendPagemapRange(start.PageNum(), end.PageNum(), buf)
	sim.ChargeTo(meter, fs.kern.Cost.PagemapRangeBase)
	sim.ChargeTo(meter, fs.kern.Cost.PagemapPerPage*sim.Duration(end.PageNum()-start.PageNum()))
	return buf
}

// ClearRefs models writing "4" to /proc/pid/clear_refs: every resident
// page's soft-dirty bit is cleared and the page write-protected so the next
// write re-records it. The cost is proportional to the resident set.
func (fs *FS) ClearRefs(p *kernel.Process, meter *sim.Meter) {
	walked := p.AS.ClearSoftDirty()
	sim.ChargeTo(meter, fs.kern.Cost.ClearRefsPerPage*sim.Duration(walked))
}
