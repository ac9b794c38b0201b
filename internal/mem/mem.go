// Package mem implements the simulated physical memory substrate: 4 KiB
// frames with reference counting, copy-on-write sharing, and a zero-page
// optimization.
//
// Frames hold real bytes. The Groundhog reproduction relies on this for its
// security argument: snapshot/restore correctness is verified by comparing
// page contents byte-for-byte, so an information leak across requests would
// be observable in tests rather than merely asserted away.
//
// The bytes live in page buffers carved from slabs and recycled, unscrubbed,
// through a free list; a frame that takes a recycled buffer zeroes it unless
// it overwrites the whole page (see PhysMem). Large slabs leave a cache line
// between pages, so that page starts spread over the cache's sets rather than
// pile into one (see slabStride). Slabs outlive the PhysMem that carved
// them: one whose every frame is freed hands its slabs, whole, to a
// process-wide spare list, and the next PhysMem to run out of slab takes one
// from there before asking the runtime, as a host's page allocator outlives
// the processes it serves. Its bookkeeping goes with them, onto a second
// list: the frame table and the free lists, emptied but with their capacity,
// are the next PhysMem's to fill. The two lists (see package spare) are the
// package's only shared state. That a recycled frame shows nothing of its
// last owner, in the same PhysMem or another, is a tested property, not a
// convention. The same buffers are lent
// whole to hold bytes that are no frame's (a snapshot's copy of a page, see
// LendPage), so that memory too is recycled rather than made.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"groundhog/internal/spare"
)

const (
	// PageSize is the size of a physical frame and of a virtual page.
	PageSize = 4096
	// PageShift is log2(PageSize).
	PageShift = 12
	// WordSize is the machine word size used by Read/WriteWord.
	WordSize = 8
)

// FrameID names a physical frame. The zero FrameID is invalid, which lets
// page-table entries use it as "no frame".
type FrameID uint64

// NoFrame is the invalid frame ID.
const NoFrame FrameID = 0

type frame struct {
	refs int
	// data is nil while the frame is all-zero; it is materialized on the
	// first non-zero write. This keeps simulating multi-gigabyte address
	// spaces cheap, mirroring how real kernels share the zero page.
	data []byte
}

// PhysMem is a pool of reference-counted frames. The zero value is an empty
// pool, as New returns.
//
// Frames live in a slot-indexed slice (the FrameID is the slot), with freed
// IDs recycled through a free list — like a real kernel's frame allocator,
// and unlike the previous map-backed pool whose hash lookups dominated the
// simulation's page-copy paths at fleet scale. Recycling is deterministic
// (LIFO), so allocation order — and therefore every simulated outcome — is
// unchanged run to run. Freed page buffers are kept for reuse so the
// steady-state fault/free churn of a long simulation does not touch the Go
// heap. Fresh ones are carved a page at a time from slabs (takeBuf), not
// made one by one: a cold start or a run of CoW breaks first-touches
// thousands of frames that then stay live, and one heap object per frame made
// the allocator and the sweeper a third of a cluster simulation's CPU. A slab
// is taken from the spare list if it holds one, else made at
// slabPages(buffers carved so far) pages — it grows with the pool, so a
// PhysMem that only ever holds a few dozen frames (a live gateway's whole
// stack) wastes at most a few pages of slack while one holding tens of
// thousands allocates by the megabyte. A slab of 8 pages or more is carved
// at a stride of a page and a cache line (slabStride), so the first lines of
// its pages, where most writes land, do not all share one cache set; the few
// small slabs stay whole pages. A page lent by LendPage is carved or
// recycled the same way, and counted (Lent) until ReturnPage takes it back.
// When Unref frees the last live frame with no page lent, or ReturnPage takes
// the last lent page back with no frame live, every buffer is free, so the
// PhysMem hands every slab it carves from back to the spare list, and its
// tables (frame table, free-ID list, free-buffer list, slab list) with them,
// emptied, and starts over with none. It stays usable: its next Alloc or
// LendPage takes a set of tables from the spare list, as a new PhysMem's
// first does, and makes one only if the list is empty. Either way the frame
// IDs start again from an empty ID space that merely has capacity, so a
// teardown followed by a rebuild grows no table from nothing. A frame ID is
// an identity within one PhysMem's lifetime between hand-backs, nothing
// more; InUse and Peak (live frames, whatever the slabs hold) are untouched.
//
// A PhysMem is not safe for concurrent use — the simulation is
// single-threaded by design (see internal/sim) — but distinct PhysMems may be
// used from distinct goroutines: the spare lists they share are locked.
type PhysMem struct {
	tables        // nil until the first Alloc or LendPage since New or the last hand-back
	slab   []byte // the newest slab's uncarved tail
	reused bool   // the newest slab came from the spare list: its bytes are stale
	carved int    // page buffers carved from slabs since the last hand-back
	lent   int    // page buffers lent by LendPage and not yet returned
	// stats
	inUse int
	peak  int
}

// tables is a PhysMem's bookkeeping: what it knows about its frames and
// buffers, as opposed to the bytes they hold. A hand-back passes it on whole.
type tables struct {
	frames []frame   // slot 0 is NoFrame and never used
	free   []FrameID // freed slots, reused LIFO
	bufs   [][]byte  // released page buffers, contents intact, reused by takeBuf
	slabs  [][]byte  // every slab carved from since the last hand-back, whole
}

// spareSlabs holds the whole slabs of PhysMems whose every frame was freed,
// for the next PhysMem that runs out of slab; spareTables holds their
// emptied tables, for the next PhysMem to start.
var (
	spareSlabs  spare.List[[]byte]
	spareTables spare.List[tables]
)

// slabPages is the size, in pages, of the next slab given the page buffers
// carved so far: a thirty-second of them, at least 4 and at most 256 (1,040
// KiB at the coloured stride, see slabStride). Proportional rather than fixed
// because the slack — the newest slab's uncarved tail — is heap the simulator
// holds for nothing: 3 % of a large pool at most, 16 KiB of a small one.
func slabPages(carved int) int {
	return min(max(carved/32, 4), 256)
}

const (
	// linePad is the gap left after each page of a coloured slab: one cache
	// line, so successive pages start on successive cache sets.
	linePad = 64
	// colourPages is the smallest slab, in pages, that is coloured. Smaller
	// slabs are made only while a pool has carved fewer than 256 pages (a
	// live gateway's whole pool), and stay whole pages.
	colourPages = 8
)

// slabStride is the distance between the starts of successive pages of a
// slab of n bytes. Pages carved back to back, 4 KiB apart, all start at the
// same cache index, and nearly every word a request writes and every extent
// a restore copies lies in a page's first line: they would contend for one
// L1 set and a few dozen L2 sets. A slab of colourPages pages or more
// therefore leaves linePad unused bytes after each page, so the first lines
// of its pages rotate through every set. The stride follows from the length
// alone, so a spare slab keeps it in whichever pool takes it.
func slabStride(n int) int {
	if n >= colourPages*PageSize {
		return PageSize + linePad
	}
	return PageSize
}

// handBack gives every slab to the spare list, and its tables, emptied, with
// them: the PhysMem keeps neither, nor the page buffers carved from the
// slabs. The caller guarantees no frame holds one and none is lent (InUse and
// Lent are 0), so every frame slot is free and holds no buffer.
func (p *PhysMem) handBack() {
	spareSlabs.Put(p.slabs...)
	spareTables.Put(tables{
		frames: p.frames[:1],
		free:   p.free[:0],
		bufs:   spare.Emptied(p.bufs),
		slabs:  spare.Emptied(p.slabs),
	})
	p.tables, p.slab, p.carved = tables{}, nil, 0
}

// takeTables gives a PhysMem with none a set of tables: one from the spare
// list if it holds one, else a new one.
func (p *PhysMem) takeTables() {
	p.tables, _ = spareTables.Take()
	if p.frames == nil {
		p.frames = make([]frame, 1)
	}
}

// New returns an empty physical memory pool.
func New() *PhysMem {
	return &PhysMem{}
}

// Alloc returns a fresh zero-filled frame with reference count 1.
func (p *PhysMem) Alloc() FrameID {
	if p.frames == nil {
		p.takeTables()
	}
	var id FrameID
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		if len(p.frames) == cap(p.frames) {
			// Double, rather than leave it to append: a runtime's first
			// request takes 150,000 frames one Alloc at a time, and append's
			// 1.25× steps for large slices allocate and copy five tables to
			// keep one (28 MB of a Node cold start's 44 MB).
			p.frames = slices.Grow(p.frames, len(p.frames))
		}
		p.frames = append(p.frames, frame{})
		id = FrameID(len(p.frames) - 1)
	}
	p.frames[id].refs = 1
	p.inUse++
	if p.inUse > p.peak {
		p.peak = p.inUse
	}
	return id
}

// get panics on invalid IDs: frame lifetime bugs are kernel bugs, and we
// want them loud.
func (p *PhysMem) get(id FrameID) *frame {
	if id <= 0 || int(id) >= len(p.frames) || p.frames[id].refs <= 0 {
		panic(fmt.Sprintf("mem: use of invalid frame %d", id))
	}
	return &p.frames[id]
}

// release returns a frame's page buffer to the reuse pool and marks the
// frame lazily zero.
func (p *PhysMem) release(f *frame) {
	if f.data != nil {
		p.bufs = append(p.bufs, f.data)
		f.data = nil
	}
}

// Ref increments the reference count (copy-on-write sharing).
func (p *PhysMem) Ref(id FrameID) {
	p.get(id).refs++
}

// Unref decrements the reference count and frees the frame when it reaches
// zero. Freeing the last live frame while no page is lent hands the slabs
// and tables back (see PhysMem).
func (p *PhysMem) Unref(id FrameID) {
	f := p.get(id)
	f.refs--
	if f.refs == 0 {
		p.release(f)
		p.free = append(p.free, id)
		p.inUse--
		if p.inUse == 0 && p.lent == 0 {
			p.handBack()
		}
	}
}

// LendPage lends the caller one page buffer from the pool frames draw from —
// a released buffer first, then the next slab page — for bytes that belong to
// no frame: the copy state store keeps a snapshot's page contents in lent
// pages. Like materializeRaw, it does not clear: the page may hold what its
// last user left, so the borrower overwrites it whole before it reads it. The
// page is the borrower's until ReturnPage; while any page is lent the PhysMem
// keeps its slabs and tables, even with no frame live.
func (p *PhysMem) LendPage() *[PageSize]byte {
	if p.frames == nil {
		p.takeTables()
	}
	p.lent++
	return (*[PageSize]byte)(p.takeBuf(false))
}

// ReturnPage takes back a page LendPage lent, contents intact, for the next
// frame or borrower to take (and clear, or overwrite whole). Returning the
// last lent page while no frame is live hands the slabs and tables back.
func (p *PhysMem) ReturnPage(b *[PageSize]byte) {
	if p.lent == 0 {
		panic("mem: ReturnPage of a page not lent")
	}
	p.bufs = append(p.bufs, b[:])
	p.lent--
	if p.lent == 0 && p.inUse == 0 {
		p.handBack()
	}
}

// Lent reports the number of pages lent by LendPage and not yet returned.
func (p *PhysMem) Lent() int { return p.lent }

// Refs reports the reference count of a frame.
func (p *PhysMem) Refs(id FrameID) int { return p.get(id).refs }

// Clone allocates a new frame containing a copy of src's bytes, with
// reference count 1. It is the copy half of copy-on-write.
func (p *PhysMem) Clone(src FrameID) FrameID {
	dst := p.Alloc() // may grow the slot array; fetch src after
	s := p.get(src)
	if s.data != nil {
		copy(p.materializeRaw(p.get(dst)), s.data)
	}
	return dst
}

// materialize gives f a real (all-zero) page buffer.
func (p *PhysMem) materialize(f *frame) []byte {
	if f.data == nil {
		f.data = p.takeBuf(true)
	}
	return f.data
}

// materializeRaw gives f a real page buffer WITHOUT zeroing recycled
// contents — only for callers about to overwrite the entire page.
func (p *PhysMem) materializeRaw(f *frame) []byte {
	if f.data == nil {
		f.data = p.takeBuf(false)
	}
	return f.data
}

// takeBuf returns a page buffer for a frame that has none, or to lend: the
// slow path of the two materialize forms, kept out of line (the compiler
// would inline it into them, and they would then be too large to inline into
// WriteWord and undo, whose common case is a frame that already has its
// buffer). A released buffer is reused first; it still holds its last user's
// bytes and is cleared here, on reuse, if the taker asks for zeros. With
// none, the next page of the current slab is carved off at the slab's stride
// (slabStride of its whole length, so a coloured spare stays coloured here),
// capacity clipped to the page so no taker can reach the gap after it or its
// neighbour's bytes. When that slab is used up the next one is a spare if
// there is one — its pages hold a dead PhysMem's bytes and are cleared for
// takers that ask for zeros, as a released buffer is — and a new one, zero as
// the runtime allocates it, only if there is none.
//
//go:noinline
func (p *PhysMem) takeBuf(zero bool) []byte {
	if n := len(p.bufs); n > 0 {
		b := p.bufs[n-1]
		p.bufs = p.bufs[:n-1]
		if zero {
			clear(b)
		}
		return b
	}
	if len(p.slab) == 0 {
		p.slab, p.reused = spareSlabs.Take()
		if !p.reused {
			n := slabPages(p.carved)
			p.slab = make([]byte, n*slabStride(n*PageSize))
		}
		p.slabs = append(p.slabs, p.slab)
	}
	b := p.slab[:PageSize:PageSize]
	p.slab = p.slab[slabStride(len(p.slabs[len(p.slabs)-1])):]
	p.carved++
	if zero && p.reused {
		clear(b)
	}
	return b
}

// checkOffset validates an intra-frame offset for an access of size n.
func checkOffset(off, n int) {
	if off < 0 || n < 0 || off+n > PageSize {
		panic(fmt.Sprintf("mem: access [%d,%d) outside frame", off, off+n))
	}
}

// ReadWord returns the 8-byte little-endian word at byte offset off.
func (p *PhysMem) ReadWord(id FrameID, off int) uint64 {
	checkOffset(off, WordSize)
	f := p.get(id)
	if f.data == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(f.data[off:])
}

// WriteWord stores the 8-byte little-endian word v at byte offset off. The
// caller must hold the only reference if copy-on-write semantics matter;
// PhysMem does not enforce CoW (the page-table layer does).
func (p *PhysMem) WriteWord(id FrameID, off int, v uint64) {
	checkOffset(off, WordSize)
	f := p.get(id)
	if v == 0 && f.data == nil {
		return // writing zero to a zero frame: stay lazily zero
	}
	binary.LittleEndian.PutUint64(p.materialize(f)[off:], v)
}

// ReadAt copies frame bytes [off, off+len(buf)) into buf.
func (p *PhysMem) ReadAt(id FrameID, off int, buf []byte) {
	checkOffset(off, len(buf))
	f := p.get(id)
	if f.data == nil {
		for i := range buf {
			buf[i] = 0
		}
		return
	}
	copy(buf, f.data[off:])
}

// zeroPage is the reference all-zero page used by the bytes.Equal fast paths.
var zeroPage [PageSize]byte

// isZeroBytes reports whether every byte of buf is zero. len(buf) must not
// exceed PageSize (every PhysMem access is intra-frame, so it never does).
func isZeroBytes(buf []byte) bool {
	return bytes.Equal(buf, zeroPage[:len(buf)])
}

// IsZero reports whether every byte of the frame is zero.
func (p *PhysMem) IsZero(id FrameID) bool {
	f := p.get(id)
	return f.data == nil || isZeroBytes(f.data)
}

// Snapshot returns an independent copy of the frame's contents. A nil return
// means the frame is all-zero; RestoreInto treats nil accordingly.
func (p *PhysMem) Snapshot(id FrameID) []byte {
	f := p.get(id)
	if f.data == nil {
		return nil
	}
	out := make([]byte, PageSize)
	copy(out, f.data)
	return out
}

// RestoreInto overwrites the frame's contents with a snapshot previously
// returned by Snapshot (nil means all-zero).
func (p *PhysMem) RestoreInto(id FrameID, snap []byte) {
	p.RestoreExtent(id, snap, 0, PageSize)
}

// RestoreExtent makes the frame equal to snap (one page of bytes; nil means
// all-zero) given that it already equals snap outside the byte range
// [lo, hi): only snap[lo:hi] is copied. This is the copy half of the
// soft-dirty extent (vm.PTE): the restorer knows which bytes of a page were
// written since the snapshot and undoes those, not the 4 KiB frame around
// them. An empty extent is a no-op; a zero snap releases the frame (the rest
// of it is zero already, by the caller's guarantee); a lazily-zero frame is
// zero-materialized first. An extent outside the frame panics.
func (p *PhysMem) RestoreExtent(id FrameID, snap []byte, lo, hi int) {
	p.undo(p.get(id), snap, lo, hi)
}

// CopyExtent is RestoreExtent with a frame as the source: dst, already equal
// to src outside [lo, hi), receives src's bytes inside it. A lazily-zero src
// propagates as a lazy zero, as with Copy.
func (p *PhysMem) CopyExtent(dst, src FrameID, lo, hi int) {
	s := p.get(src)
	p.undo(p.get(dst), s.data, lo, hi)
}

// undo is the one copy loop behind every restore-side write: f, equal to src
// outside [lo, hi), is made equal to it everywhere.
func (p *PhysMem) undo(f *frame, src []byte, lo, hi int) {
	if lo < 0 || lo > hi || hi > PageSize {
		panic(fmt.Sprintf("mem: extent [%d,%d) outside frame", lo, hi))
	}
	switch {
	case lo == hi:
	case src == nil:
		p.release(f)
	case hi-lo == PageSize:
		copy(p.materializeRaw(f), src)
	default:
		copy(p.materialize(f)[lo:hi], src[lo:hi])
	}
}

// RestoreRun overwrites a run of whole frames in one call: frame ids[i]
// receives data[i*PageSize:(i+1)*PageSize]. A nil data zeroes every frame in
// the run.
func (p *PhysMem) RestoreRun(ids []FrameID, data []byte) {
	if data != nil && len(data) != len(ids)*PageSize {
		panic(fmt.Sprintf("mem: RestoreRun of %d frames with %d bytes", len(ids), len(data)))
	}
	for i, id := range ids {
		var page []byte
		if data != nil {
			page = data[i*PageSize : (i+1)*PageSize]
		}
		p.RestoreInto(id, page)
	}
}

// CopyRun overwrites frame dst[i] with the whole contents of src[i] for every
// frame of the run. Lazily-zero sources propagate as lazy zeros, as with Copy.
func (p *PhysMem) CopyRun(dst, src []FrameID) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mem: CopyRun of %d dst frames with %d src frames", len(dst), len(src)))
	}
	for i, s := range src {
		p.Copy(dst[i], s)
	}
}

// Copy overwrites dst's contents with src's.
func (p *PhysMem) Copy(dst, src FrameID) {
	p.CopyExtent(dst, src, 0, PageSize)
}

// Bytes reports the materialized size of a frame: 0 while it is lazily
// all-zero, PageSize once real contents exist. The copy-on-write state
// store uses this for its memory accounting.
func (p *PhysMem) Bytes(id FrameID) int {
	if p.get(id).data == nil {
		return 0
	}
	return PageSize
}

// fnv1a64 hashes b with 64-bit FNV-1a.
func fnv1a64(b []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// zeroChecksum is the FNV-1a hash of an all-zero page, so lazily-zero
// frames checksum identically to materialized all-zero frames.
var zeroChecksum = fnv1a64(zeroPage[:])

// Checksum returns a 64-bit FNV-1a hash of the frame's contents. The
// snapshot-image integrity check uses it to detect frame corruption between
// export and clone.
func (p *PhysMem) Checksum(id FrameID) uint64 {
	f := p.get(id)
	if f.data == nil {
		return zeroChecksum
	}
	return fnv1a64(f.data)
}

// InUse reports the number of live frames.
func (p *PhysMem) InUse() int { return p.inUse }

// Peak reports the high-water mark of live frames.
func (p *PhysMem) Peak() int { return p.peak }
