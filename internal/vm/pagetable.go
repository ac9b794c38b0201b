package vm

import "math/bits"

// The sparse page table behind AddressSpace. PTEs live in chunks of 512
// entries covering aligned 512-page spans, with a presence bitmap per chunk:
// a page-table operation is a chunk lookup (one-entry cache, then a binary
// search over a handful of chunks) plus an array index, and walking the
// resident set is a linear scan that yields page numbers in sorted order
// without sorting. The previous representation — one Go map entry per
// resident page — made every fault, poke, and scan a hash operation and
// every walk an unordered iteration plus a sort; at fleet scale (millions of
// simulated requests, each restoring its dirty set) the hashing dominated
// the entire simulation's wall time.

const (
	chunkShift = 9
	chunkPages = 1 << chunkShift // pages per chunk
	chunkMask  = chunkPages - 1
	chunkWords = chunkPages / 64 // bitmap words per chunk
)

// pageChunk holds the PTEs of one aligned chunkPages-page span.
type pageChunk struct {
	base    uint64 // first vpn of the span (chunkPages-aligned)
	n       int    // population count
	bitmap  [chunkWords]uint64
	entries [chunkPages]PTE
}

// present reports whether slot i holds a live entry.
func (c *pageChunk) present(i uint64) bool {
	return c.bitmap[i>>6]&(1<<(i&63)) != 0
}

func (c *pageChunk) setBit(i uint64)   { c.bitmap[i>>6] |= 1 << (i & 63) }
func (c *pageChunk) clearBit(i uint64) { c.bitmap[i>>6] &^= 1 << (i & 63) }

// pageTable is a sorted collection of chunks plus a one-entry lookup cache
// (page operations are strongly local: workloads touch one region at a time
// and scans walk addresses in order).
type pageTable struct {
	chunks []*pageChunk // sorted by base, no two sharing a base
	total  int          // resident pages across all chunks
	cache  *pageChunk   // last chunk hit (nil after its removal)
	// spare is the last chunk emptied (all entries and bits zero, as delete
	// leaves them), kept for the next addChunk: a request that maps and
	// writes a scratch region the rollback then unmaps would otherwise
	// allocate a chunk per request.
	spare *pageChunk
}

// chunkFor returns the chunk covering vpn, or nil.
func (pt *pageTable) chunkFor(vpn uint64) *pageChunk {
	base := vpn &^ uint64(chunkMask)
	if c := pt.cache; c != nil && c.base == base {
		return c
	}
	lo, hi := 0, len(pt.chunks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pt.chunks[mid].base < base {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(pt.chunks) && pt.chunks[lo].base == base {
		pt.cache = pt.chunks[lo]
		return pt.chunks[lo]
	}
	return nil
}

// get returns the entry for vpn, if present.
func (pt *pageTable) get(vpn uint64) (PTE, bool) {
	c := pt.chunkFor(vpn)
	if c == nil || !c.present(vpn&chunkMask) {
		return PTE{}, false
	}
	return c.entries[vpn&chunkMask], true
}

// ref returns a pointer to vpn's live entry for in-place mutation, or nil if
// the page is not resident. The pointer is valid until the entry is deleted.
func (pt *pageTable) ref(vpn uint64) *PTE {
	c := pt.chunkFor(vpn)
	if c == nil || !c.present(vpn&chunkMask) {
		return nil
	}
	return &c.entries[vpn&chunkMask]
}

// set stores the entry for vpn, inserting it if absent, and returns a pointer
// to the stored entry.
func (pt *pageTable) set(vpn uint64, pte PTE) *PTE {
	c := pt.chunkFor(vpn)
	if c == nil {
		c = pt.addChunk(vpn &^ uint64(chunkMask))
	}
	i := vpn & chunkMask
	if !c.present(i) {
		c.setBit(i)
		c.n++
		pt.total++
	}
	c.entries[i] = pte
	return &c.entries[i]
}

// addChunk inserts an empty chunk at base, keeping the list sorted.
func (pt *pageTable) addChunk(base uint64) *pageChunk {
	c := pt.spare
	if c == nil {
		c = &pageChunk{}
	}
	pt.spare = nil
	c.base = base
	lo, hi := 0, len(pt.chunks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pt.chunks[mid].base < base {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	pt.chunks = append(pt.chunks, nil)
	copy(pt.chunks[lo+1:], pt.chunks[lo:])
	pt.chunks[lo] = c
	pt.cache = c
	return c
}

// delete removes vpn's entry, returning it. Chunks emptied by the removal are
// dropped so long-lived address spaces do not accumulate dead spans.
func (pt *pageTable) delete(vpn uint64) (PTE, bool) {
	c := pt.chunkFor(vpn)
	i := vpn & chunkMask
	if c == nil || !c.present(i) {
		return PTE{}, false
	}
	pte := c.entries[i]
	c.entries[i] = PTE{}
	c.clearBit(i)
	c.n--
	pt.total--
	if c.n == 0 {
		pt.removeChunk(c)
	}
	return pte, true
}

// removeChunk drops an empty chunk from the sorted list.
func (pt *pageTable) removeChunk(c *pageChunk) {
	for i, x := range pt.chunks {
		if x == c {
			copy(pt.chunks[i:], pt.chunks[i+1:])
			pt.chunks[len(pt.chunks)-1] = nil
			pt.chunks = pt.chunks[:len(pt.chunks)-1]
			break
		}
	}
	if pt.cache == c {
		pt.cache = nil
	}
	pt.spare = c
}

// len returns the number of resident pages.
func (pt *pageTable) len() int { return pt.total }

// reset drops every chunk.
func (pt *pageTable) reset() {
	pt.chunks = nil
	pt.total = 0
	pt.cache = nil
	pt.spare = nil
}

// appendVPNs appends every resident page number to dst in sorted order.
func (pt *pageTable) appendVPNs(dst []uint64) []uint64 {
	for _, c := range pt.chunks {
		for w, word := range c.bitmap {
			for ; word != 0; word &= word - 1 {
				dst = append(dst, c.base+uint64(w<<6)+uint64(bits.TrailingZeros64(word)))
			}
		}
	}
	return dst
}

// appendSoftDirtyVPNs appends every resident page number whose soft-dirty bit
// is set to dst, in sorted order.
func (pt *pageTable) appendSoftDirtyVPNs(dst []uint64) []uint64 {
	for _, c := range pt.chunks {
		for w, word := range c.bitmap {
			for ; word != 0; word &= word - 1 {
				i := uint64(w<<6) + uint64(bits.TrailingZeros64(word))
				if c.entries[i].SoftDirty {
					dst = append(dst, c.base+i)
				}
			}
		}
	}
	return dst
}

// appendRange appends one PagemapEntry per resident page in [lo, hi) to dst,
// in sorted order. The walk touches only chunks intersecting the range and
// only present slots within them, so a pagemap read over a sparse region
// costs the resident pages, not the span.
func (pt *pageTable) appendRange(lo, hi uint64, dst []PagemapEntry) []PagemapEntry {
	loBase := lo &^ uint64(chunkMask)
	i, j := 0, len(pt.chunks)
	for i < j {
		mid := int(uint(i+j) >> 1)
		if pt.chunks[mid].base < loBase {
			i = mid + 1
		} else {
			j = mid
		}
	}
	for ; i < len(pt.chunks) && pt.chunks[i].base < hi; i++ {
		c := pt.chunks[i]
		for w, word := range c.bitmap {
			for ; word != 0; word &= word - 1 {
				k := uint64(w<<6) + uint64(bits.TrailingZeros64(word))
				vpn := c.base + k
				if vpn < lo {
					continue
				}
				if vpn >= hi {
					return dst
				}
				dst = append(dst, PagemapEntry{VPN: vpn, SoftDirty: c.entries[k].SoftDirty})
			}
		}
	}
	return dst
}

// clearSoftDirty starts a new epoch for one entry: soft-dirty bit off, extent
// empty, write protection armed.
func (p *PTE) clearSoftDirty() {
	p.SoftDirty = false
	p.lo, p.hi = 0, 0
	p.wpArmed = true
}

// clearSoftDirty clears every resident entry's soft-dirty bit and extent and
// arms its write protection, returning the number of entries walked.
func (pt *pageTable) clearSoftDirty() int {
	for _, c := range pt.chunks {
		for w, word := range c.bitmap {
			for ; word != 0; word &= word - 1 {
				i := uint64(w<<6) + uint64(bits.TrailingZeros64(word))
				c.entries[i].clearSoftDirty()
			}
		}
	}
	return pt.total
}
