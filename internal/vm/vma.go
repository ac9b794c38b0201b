// Package vm implements simulated virtual address spaces: memory regions
// (VMAs), demand-paged page tables with copy-on-write and soft-dirty
// tracking, and the memory-management operations Groundhog's restorer must
// reverse (brk, mmap, munmap, madvise, mprotect).
//
// The package mirrors the Linux facilities the paper builds on (§4):
// soft-dirty bits armed by write-protection faults, /proc-visible region
// lists, and CoW fork. Costs of faults and accesses are charged to an
// attached sim.Meter according to a Costs table, so the same functional code
// yields both correctness (byte-accurate state) and timing (virtual
// durations) for the evaluation.
package vm

import (
	"fmt"

	"groundhog/internal/mem"
)

// Addr is a virtual address.
type Addr uint64

// PageNum returns the virtual page number containing a.
func (a Addr) PageNum() uint64 { return uint64(a) >> mem.PageShift }

// PageOff returns the byte offset of a within its page.
func (a Addr) PageOff() int { return int(uint64(a) & (mem.PageSize - 1)) }

// Aligned reports whether a is page-aligned.
func (a Addr) Aligned() bool { return a.PageOff() == 0 }

// PageAddr returns the first address of virtual page vpn.
func PageAddr(vpn uint64) Addr { return Addr(vpn << mem.PageShift) }

// PageCeil rounds n bytes up to a whole number of pages, in bytes.
func PageCeil(n int) int {
	return (n + mem.PageSize - 1) &^ (mem.PageSize - 1)
}

// String formats the address in the /proc/pid/maps hexadecimal style.
func (a Addr) String() string { return fmt.Sprintf("%012x", uint64(a)) }

// Prot is a bitmask of access permissions on a region.
type Prot uint8

// Permission bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// ProtRW is the common read+write protection.
const ProtRW = ProtRead | ProtWrite

// String renders the permission in the maps "rwx" style (private mappings).
func (p Prot) String() string {
	b := []byte("---p")
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// ParseProt parses the maps-style permission string produced by
// Prot.String.
func ParseProt(s string) (Prot, error) {
	if len(s) < 3 {
		return 0, fmt.Errorf("vm: bad prot %q", s)
	}
	var p Prot
	if s[0] == 'r' {
		p |= ProtRead
	}
	if s[1] == 'w' {
		p |= ProtWrite
	}
	if s[2] == 'x' {
		p |= ProtExec
	}
	return p, nil
}

// Kind classifies a region for layout bookkeeping and reporting. It stands
// in for the pathname column of /proc/pid/maps.
type Kind uint8

// Region kinds.
const (
	KindAnon  Kind = iota // anonymous mmap
	KindText              // program text
	KindData              // program data/bss
	KindHeap              // the brk-managed heap
	KindStack             // thread stack
	KindFile              // file-backed mapping (runtime libraries)
)

var kindNames = [...]string{"anon", "text", "data", "heap", "stack", "file"}

// String returns the kind's lowercase name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind parses the string form produced by Kind.String.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("vm: bad kind %q", s)
}

// VMA is a virtual memory area: a half-open, page-aligned address range with
// uniform protection. VMAs are values; the address space owns the canonical
// sorted list, and its access path refers to a region by index into that
// list — a VMA is copied out only for inspection (FindVMA, VMAs).
type VMA struct {
	Start Addr
	End   Addr
	Prot  Prot
	Kind  Kind
	Name  string // optional label, e.g. a mapped library
}

// Len returns the region's size in bytes.
func (v VMA) Len() int { return int(v.End - v.Start) }

// Pages returns the region's size in pages.
func (v VMA) Pages() int { return v.Len() / mem.PageSize }

// Contains reports whether a lies inside the region.
func (v VMA) Contains(a Addr) bool { return a >= v.Start && a < v.End }

// Overlaps reports whether the two regions share any page.
func (v VMA) Overlaps(o VMA) bool { return v.Start < o.End && o.Start < v.End }

// SameAttrs reports whether two regions could be merged: identical
// protection, kind and name.
func (v VMA) SameAttrs(o VMA) bool {
	return v.Prot == o.Prot && v.Kind == o.Kind && v.Name == o.Name
}

// String renders the region in a /proc/pid/maps-like single line.
func (v VMA) String() string {
	name := v.Name
	if name == "" {
		name = "[" + v.Kind.String() + "]"
	}
	return fmt.Sprintf("%s-%s %s %s", v.Start, v.End, v.Prot, name)
}

func (v VMA) validate() error {
	if !v.Start.Aligned() || !v.End.Aligned() {
		return fmt.Errorf("vm: unaligned region %v", v)
	}
	if v.End <= v.Start {
		return fmt.Errorf("vm: empty or inverted region %v", v)
	}
	return nil
}
