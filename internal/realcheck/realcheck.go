// Package realcheck validates the simulation's soft-dirty semantics against
// the running Linux kernel, using the same /proc files Groundhog itself uses
// (§4.2-§4.3) — but on the current process, where no ptrace is required.
//
// The check: mmap an anonymous region, fill it, snapshot its contents, clear
// the soft-dirty bits via /proc/self/clear_refs, dirty a chosen subset of
// pages, read the soft-dirty bits back from /proc/self/pagemap (bit 55), and
// confirm the kernel reports a superset of exactly the written pages; then
// restore the dirty pages from the snapshot and verify the region
// byte-for-byte — a miniature, in-process Groundhog cycle on real hardware.
//
// The calibration notes for this reproduction anticipated that full ptrace
// orchestration from Go is impractical (Go's scheduler migrates goroutines
// across OS threads, while a tracer must stay on one); self-inspection
// avoids that entirely and still exercises the kernel features the paper
// builds on. On kernels without CONFIG_MEM_SOFT_DIRTY the check reports
// ErrUnsupported.
package realcheck

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// ErrUnsupported indicates the running kernel does not expose soft-dirty
// tracking (missing CONFIG_MEM_SOFT_DIRTY or a non-Linux OS).
var ErrUnsupported = errors.New("realcheck: soft-dirty tracking unavailable on this kernel")

const (
	pageSize = 4096
	// pagemap entry bit 55: page is soft-dirty (Documentation/vm/soft-dirty.txt).
	softDirtyBit = 1 << 55
	// pagemap entry bit 63: page present.
	presentBit = 1 << 63
)

// Result reports one real-kernel snapshot/restore cycle.
type Result struct {
	Pages         int
	Written       []int // page indices the check wrote
	ReportedDirty []int // page indices the kernel flagged soft-dirty
	Restored      int
	Verified      bool
}

// Run performs the cycle over `pages` pages, writing to the given page
// indices after clearing refs. It returns ErrUnsupported (wrapped) when the
// kernel cannot track soft-dirty bits.
func Run(pages int, writeSet []int) (*Result, error) {
	if runtime.GOOS != "linux" {
		return nil, ErrUnsupported
	}
	if pages <= 0 {
		return nil, fmt.Errorf("realcheck: non-positive page count")
	}
	region, err := syscall.Mmap(-1, 0, pages*pageSize,
		syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS)
	if err != nil {
		return nil, fmt.Errorf("realcheck: mmap: %w", err)
	}
	defer syscall.Munmap(region)

	// Fill every page so all are present with known contents.
	for i := 0; i < pages; i++ {
		for j := 0; j < pageSize; j += 512 {
			region[i*pageSize+j] = byte(i + j)
		}
	}

	// Snapshot (the StateStore).
	snapshot := make([]byte, len(region))
	copy(snapshot, region)

	base := regionBase(region)
	if err := clearSoftDirty(base, pages); err != nil {
		return nil, err
	}

	// The "request": dirty the chosen subset.
	res := &Result{Pages: pages}
	for _, idx := range writeSet {
		if idx < 0 || idx >= pages {
			continue
		}
		region[idx*pageSize+7] = 0xAB
		res.Written = append(res.Written, idx)
	}

	// Read the soft-dirty bits back.
	res.ReportedDirty, err = readSoftDirty(base, pages)
	if err != nil {
		return nil, err
	}

	// Completeness: every written page must be flagged.
	flagged := make(map[int]bool, len(res.ReportedDirty))
	for _, idx := range res.ReportedDirty {
		flagged[idx] = true
	}
	for _, idx := range res.Written {
		if !flagged[idx] {
			return res, fmt.Errorf("realcheck: kernel missed dirty page %d", idx)
		}
	}

	// Restore the flagged pages from the snapshot and verify everything.
	for _, idx := range res.ReportedDirty {
		copy(region[idx*pageSize:(idx+1)*pageSize], snapshot[idx*pageSize:(idx+1)*pageSize])
		res.Restored++
	}
	for i := range region {
		if region[i] != snapshot[i] {
			return res, fmt.Errorf("realcheck: byte %d differs after restore", i)
		}
	}
	res.Verified = true
	return res, nil
}

// clearSoftDirty clears the soft-dirty bits of the process
// (echo 4 > /proc/self/clear_refs), given a region of `pages` pages at base
// that were all just written. It returns ErrUnsupported (wrapped) unless the
// kernel tracks soft-dirty bits: freshly written anonymous pages must carry
// bit 55 first — a kernel without CONFIG_MEM_SOFT_DIRTY accepts the
// clear_refs write silently but reports the bit as permanently zero — and
// the region must not read all dirty after the clear — a kernel with bits
// stuck at 1 is equally unusable.
func clearSoftDirty(base uintptr, pages int) error {
	probe, err := readSoftDirty(base, pages)
	if err != nil {
		return err
	}
	if len(probe) == 0 {
		return fmt.Errorf("%w (bit 55 never set)", ErrUnsupported)
	}
	if err := os.WriteFile("/proc/self/clear_refs", []byte("4"), 0); err != nil {
		return fmt.Errorf("%w (clear_refs: %v)", ErrUnsupported, err)
	}
	if cleared, err := readSoftDirty(base, pages); err != nil {
		return err
	} else if len(cleared) == pages {
		return fmt.Errorf("%w (clear_refs has no effect)", ErrUnsupported)
	}
	return nil
}

// regionBase returns the region's starting virtual address. This is the
// package's single use of unsafe, and only to name an address the kernel
// already gave us (the mmap result).
func regionBase(region []byte) uintptr {
	return uintptr(unsafe.Pointer(&region[0]))
}

// readSoftDirty returns the page indices (relative to base) whose pagemap
// entries have the soft-dirty bit set, over `pages` pages.
func readSoftDirty(base uintptr, pages int) ([]int, error) {
	entries, err := readPagemap(base, pages)
	if err != nil {
		return nil, err
	}
	var dirty []int
	for i, entry := range entries {
		if entry&presentBit != 0 && entry&softDirtyBit != 0 {
			dirty = append(dirty, i)
		}
	}
	return dirty, nil
}

// readPagemap returns the raw /proc/self/pagemap entries of the `pages`
// pages starting at base.
func readPagemap(base uintptr, pages int) ([]uint64, error) {
	f, err := os.Open("/proc/self/pagemap")
	if err != nil {
		return nil, fmt.Errorf("%w (pagemap: %v)", ErrUnsupported, err)
	}
	defer f.Close()

	buf := make([]byte, 8*pages)
	offset := int64(base/pageSize) * 8
	if _, err := f.ReadAt(buf, offset); err != nil {
		return nil, fmt.Errorf("realcheck: pagemap read: %w", err)
	}
	entries := make([]uint64, pages)
	for i := range entries {
		entries[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return entries, nil
}
