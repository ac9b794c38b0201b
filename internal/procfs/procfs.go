// Package procfs exposes the simulated kernel's per-process state the way
// Linux's /proc filesystem does: the maps file (memory regions), the pagemap
// file (per-page present and soft-dirty bits), and the clear_refs control
// file. Groundhog's manager consumes exactly these three interfaces (§4.2,
// §4.3 of the paper).
//
// PagemapRangePresent is the one pagemap reader: core.TakeSnapshot enumerates
// the resident pages with it, a region at a time. core.Restore charges the
// same per-region, per-mapped-page price for its scan but takes the data from
// the address space's own indexes instead of reading the file again.
//
// Maps is rendered to (and parsed from) real text in the /proc/pid/maps
// format: the snapshotter works from the parsed text, not from privileged
// pointers into the kernel, mirroring the userspace boundary the real system
// has to respect.
package procfs

import (
	"bufio"
	"fmt"
	"strings"

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

// Maps renders /proc/pid/maps for p, charging the read cost to meter.
func (fs *FS) Maps(p *kernel.Process, meter *sim.Meter) string {
	vmas := p.AS.VMAs()
	sim.ChargeTo(meter, fs.kern.Cost.ReadMapsBase)
	sim.ChargeTo(meter, fs.kern.Cost.ReadMapsPerVMA*sim.Duration(len(vmas)))
	var b strings.Builder
	for _, v := range vmas {
		name := v.Name
		if name == "" {
			name = "[" + v.Kind.String() + "]"
		}
		fmt.Fprintf(&b, "%012x-%012x %s 00000000 00:00 0 %s\n",
			uint64(v.Start), uint64(v.End), v.Prot, name)
	}
	return b.String()
}

// MapsRegions reads p's memory layout directly into buf (appending, so a
// caller that reuses buf across calls allocates nothing) and returns the
// extended slice. It charges exactly the costs of Maps: this is the same
// /proc/pid/maps read, parsed into a preallocated region buffer instead of
// through an intermediate string. Equivalence with ParseMaps(Maps(...)) is
// asserted by tests; the restore hot path uses this form.
func (fs *FS) MapsRegions(p *kernel.Process, meter *sim.Meter, buf []vm.VMA) []vm.VMA {
	sim.ChargeTo(meter, fs.kern.Cost.ReadMapsBase)
	sim.ChargeTo(meter, fs.kern.Cost.ReadMapsPerVMA*sim.Duration(p.AS.NumVMAs()))
	return p.AS.AppendVMAs(buf)
}

// ParseMaps parses text in the format produced by Maps back into regions.
func ParseMaps(text string) ([]vm.VMA, error) {
	var out []vm.VMA
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 6 {
			return nil, fmt.Errorf("procfs: short maps line %q", line)
		}
		var start, end uint64
		if _, err := fmt.Sscanf(fields[0], "%x-%x", &start, &end); err != nil {
			return nil, fmt.Errorf("procfs: bad range in %q: %v", line, err)
		}
		prot, err := vm.ParseProt(fields[1])
		if err != nil {
			return nil, err
		}
		name := strings.Join(fields[5:], " ")
		v := vm.VMA{Start: vm.Addr(start), End: vm.Addr(end), Prot: prot}
		if strings.HasPrefix(name, "[") && strings.HasSuffix(name, "]") {
			kind, err := vm.ParseKind(name[1 : len(name)-1])
			if err != nil {
				return nil, err
			}
			v.Kind = kind
		} else {
			v.Kind = vm.KindFile
			v.Name = name
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

// PagemapRangePresent reads the pagemap entries for [start, end), appending
// one vm.PagemapEntry (page number and soft-dirty bit) per present page to buf
// and returning the extended slice, so a caller that reuses buf allocates
// nothing. It walks the page table's resident chunks instead of testing every
// page of the span, but the charge is the file read's: PagemapRangeBase (the
// seek to the range's offset) plus PagemapPerPage for every page of the span,
// present or not — the reason scan cost grows with address-space size even at
// a fixed write-set size (Fig. 3 right, §5.2.2).
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
