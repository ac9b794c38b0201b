package core

import (
	"slices"

	"groundhog/internal/mem"
)

// stateStore is the arena-backed StateStore: the recorded contents of every
// resident page at snapshot time, held in contiguous, sorted structures
// instead of hash maps.
//
// Layout:
//
//	vpns   [v0 v1 v2 ...]          sorted virtual page numbers (the index)
//	off    [o0 -1 o1 ...]          arena byte offset per page, -1 = all-zero
//	arena  [page0 | page2 | ...]   one contiguous allocation of page contents
//	frames [f0 f1 f2 ...]          CoW frame refs (StoreCoW) instead of off/arena
//
// Because offsets are assigned in vpns order and all-zero pages consume no
// arena bytes, any run of consecutive store indices whose pages are non-zero
// occupies one contiguous arena slice — which is what lets the restorer hand
// whole coalesced runs to vm.AddressSpace.PokePageRun as a single buffer.
// Membership tests are binary searches and content reads are slice views, so
// the restore hot path neither hashes nor allocates; snapshot memory is one
// arena plus three small index slices instead of tens of thousands of 4 KiB
// map values.
type stateStore struct {
	vpns  []uint64
	off   []int
	arena []byte
	// frames holds CoW-shared frame references (StoreCoW, §5.5); the store
	// owns one reference per entry. nil for the eager copy store.
	frames []mem.FrameID
}

// len returns the number of recorded pages.
func (s *stateStore) len() int { return len(s.vpns) }

// index returns the store position of vpn, or -1 if the page is not recorded.
func (s *stateStore) index(vpn uint64) int {
	if i, ok := slices.BinarySearch(s.vpns, vpn); ok {
		return i
	}
	return -1
}

// has reports whether the store recorded page vpn.
func (s *stateStore) has(vpn uint64) bool { return s.index(vpn) >= 0 }

// zeroAt reports whether recorded page i is all-zero without materializing a
// copy.
func (s *stateStore) zeroAt(i int, phys *mem.PhysMem) bool {
	if s.frames != nil {
		return phys.Bytes(s.frames[i]) == 0
	}
	return s.off[i] < 0
}

// contentAt returns the recorded bytes of page i (nil = all-zero). For the
// copy store this is a zero-copy view into the arena; for the CoW store the
// frame is read into buf (at least a page long), so verification allocates
// nothing per page.
func (s *stateStore) contentAt(i int, phys *mem.PhysMem, buf []byte) []byte {
	if s.frames != nil {
		if s.zeroAt(i, phys) {
			return nil
		}
		phys.ReadAt(s.frames[i], 0, buf[:mem.PageSize])
		return buf[:mem.PageSize]
	}
	if s.off[i] < 0 {
		return nil
	}
	return s.arena[s.off[i] : s.off[i]+mem.PageSize]
}

// release drops the store's frame references (StoreCoW).
func (s *stateStore) release(phys *mem.PhysMem) {
	for _, f := range s.frames {
		phys.Unref(f)
	}
}

// bytes reports the store's materialized memory: for the copy store, the
// arena (all-zero pages consume nothing); for the CoW store, only frames that
// have diverged from the function, i.e. memory proportional to the pages the
// function actually dirtied (§5.5).
func (s *stateStore) bytes(phys *mem.PhysMem) int {
	if s.frames != nil {
		total := 0
		for _, f := range s.frames {
			if phys.Refs(f) == 1 {
				total += phys.Bytes(f)
			}
		}
		return total
	}
	return len(s.arena)
}
