package core

import (
	"slices"

	"groundhog/internal/mem"
)

// The StateStore: the recorded contents of every resident page at snapshot
// time, held in the snapshot's sorted, parallel slices instead of hash maps.
//
// Layout:
//
//	VPNs   [v0 v1 v2 ...]          sorted virtual page numbers (the index)
//	pages  [p0 nil p2 ...]         a page lent by PhysMem per page, nil = all-zero
//	Frames [f0 f1 f2 ...]          CoW frame refs (StoreCoW) instead of pages
//
// The copy store's contents live in pages the kernel's PhysMem lends
// (mem.PhysMem.LendPage): the same free list and slabs frames draw from, so
// a snapshot taken after a container's teardown reuses what its store and
// frames gave back instead of allocating, and all-zero pages take none. The
// index costs one pointer per page, and a run of consecutive store indices
// is handed to vm.AddressSpace.PokePageRun as it stands, zero pages and all.
// A CoW store (§5.5), and every clone's, holds one frame reference per
// Frames entry instead; Frames is nil for the eager copy store. Membership
// tests are binary searches and content reads are the lent pages
// themselves, so the restore hot path neither hashes nor allocates.

// len returns the number of recorded pages.
func (s *snapshot) len() int { return len(s.VPNs) }

// index returns the store position of vpn, or -1 if the page is not recorded.
func (s *snapshot) index(vpn uint64) int {
	if i, ok := slices.BinarySearch(s.VPNs, vpn); ok {
		return i
	}
	return -1
}

// has reports whether the store recorded page vpn.
func (s *snapshot) has(vpn uint64) bool { return s.index(vpn) >= 0 }

// zeroAt reports whether recorded page i is all-zero without materializing a
// copy.
func (s *snapshot) zeroAt(i int, phys *mem.PhysMem) bool {
	if s.Frames != nil {
		return phys.Bytes(s.Frames[i]) == 0
	}
	return s.pages[i] == nil
}

// contentAt returns the recorded bytes of page i (nil = all-zero). For the
// copy store this is the lent page itself; for the CoW store the
// frame is read into buf (at least a page long), so verification allocates
// nothing per page.
func (s *snapshot) contentAt(i int, phys *mem.PhysMem, buf []byte) []byte {
	if s.Frames != nil {
		if s.zeroAt(i, phys) {
			return nil
		}
		phys.ReadAt(s.Frames[i], 0, buf[:mem.PageSize])
		return buf[:mem.PageSize]
	}
	if s.pages[i] == nil {
		return nil
	}
	return s.pages[i][:]
}

// release returns what the store holds to phys: the CoW store's frame
// references, the copy store's lent pages.
func (s *snapshot) release(phys *mem.PhysMem) {
	for _, f := range s.Frames {
		phys.Unref(f)
	}
	for _, p := range s.pages {
		if p != nil {
			phys.ReturnPage(p)
		}
	}
}

// bytes reports the store's materialized memory: for the copy store, its lent
// pages (all-zero pages consume nothing); for the CoW store, only frames that
// have diverged from the function, i.e. memory proportional to the pages the
// function actually dirtied (§5.5).
func (s *snapshot) bytes(phys *mem.PhysMem) int {
	if s.Frames != nil {
		total := 0
		for _, f := range s.Frames {
			if phys.Refs(f) == 1 {
				total += phys.Bytes(f)
			}
		}
		return total
	}
	total := 0
	for _, p := range s.pages {
		if p != nil {
			total += mem.PageSize
		}
	}
	return total
}
