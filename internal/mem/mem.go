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
// it overwrites the whole page (see PhysMem). That a recycled frame shows
// nothing of its last owner is a tested property, not a convention.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
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

// PhysMem is a pool of reference-counted frames. The zero value is not
// usable; call New.
//
// Frames live in a slot-indexed slice (the FrameID is the slot), with freed
// IDs recycled through a free list — like a real kernel's frame allocator,
// and unlike the previous map-backed pool whose hash lookups dominated the
// simulation's page-copy paths at fleet scale. Recycling is deterministic
// (LIFO), so allocation order — and therefore every simulated outcome — is
// unchanged run to run. Freed page buffers are kept for reuse so the
// steady-state fault/free churn of a long simulation does not touch the Go
// heap. Fresh ones are carved a page at a time from slabs this PhysMem
// allocates (takeBuf), not made one by one: a cold start or a run of CoW
// breaks first-touches thousands of frames that then stay live, and one heap
// object per frame made the allocator and the sweeper a third of a cluster
// simulation's CPU. A slab is slabPages(buffers carved so far) pages — it
// grows with the pool, so a PhysMem that only ever holds a few dozen frames (a
// live gateway's whole stack) wastes at most a few pages of slack while one
// holding tens of thousands allocates by the megabyte. InUse and Peak count
// live frames, whatever the slabs hold.
//
// PhysMem is not safe for concurrent use. The simulation is single-threaded
// by design (see internal/sim).
type PhysMem struct {
	frames []frame   // slot 0 is NoFrame and never used
	free   []FrameID // freed slots, reused LIFO
	bufs   [][]byte  // released page buffers, contents intact, reused by takeBuf
	slab   []byte    // the newest slab's uncarved tail
	carved int       // page buffers carved from slabs so far
	// stats
	inUse int
	peak  int
}

// slabPages is the size, in pages, of the next slab given the page buffers
// carved so far: a thirty-second of them, at least 4 and at most 256 (1 MiB).
// Proportional rather than fixed because the slack — the newest slab's
// uncarved tail — is heap the simulator holds for nothing: 3 % of a large
// pool at most, 16 KiB of a small one.
func slabPages(carved int) int {
	return min(max(carved/32, 4), 256)
}

// New returns an empty physical memory pool.
func New() *PhysMem {
	return &PhysMem{frames: make([]frame, 1)}
}

// Alloc returns a fresh zero-filled frame with reference count 1.
func (p *PhysMem) Alloc() FrameID {
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
// zero.
func (p *PhysMem) Unref(id FrameID) {
	f := p.get(id)
	f.refs--
	if f.refs == 0 {
		p.release(f)
		p.free = append(p.free, id)
		p.inUse--
	}
}

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
		p.takeBuf(f, true)
	}
	return f.data
}

// materializeRaw gives f a real page buffer WITHOUT zeroing recycled
// contents — only for callers about to overwrite the entire page.
func (p *PhysMem) materializeRaw(f *frame) []byte {
	if f.data == nil {
		p.takeBuf(f, false)
	}
	return f.data
}

// takeBuf hands f, which has none, a page buffer: the slow path of the two
// materialize forms, kept out of line (the compiler would inline it into
// them, and they would then be too large to inline into WriteWord and undo,
// whose common case is a frame that already has its buffer). A released
// buffer is reused first; it still holds its last frame's bytes and is
// cleared here, on reuse, if the taker asks for zeros. With none, the next
// page of the current slab is carved off — zero as the runtime allocated it,
// capacity clipped to the page so no frame can reach its neighbour's bytes —
// and a new slab allocated when that one is used up.
//
//go:noinline
func (p *PhysMem) takeBuf(f *frame, zero bool) {
	if n := len(p.bufs); n > 0 {
		f.data = p.bufs[n-1]
		p.bufs = p.bufs[:n-1]
		if zero {
			clear(f.data)
		}
		return
	}
	if len(p.slab) == 0 {
		p.slab = make([]byte, slabPages(p.carved)*PageSize)
	}
	f.data, p.slab = p.slab[:PageSize:PageSize], p.slab[PageSize:]
	p.carved++
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

// WriteAt copies buf into frame bytes [off, off+len(buf)).
func (p *PhysMem) WriteAt(id FrameID, off int, buf []byte) {
	checkOffset(off, len(buf))
	f := p.get(id)
	if f.data == nil && isZeroBytes(buf) {
		return
	}
	copy(p.materialize(f)[off:], buf)
}

// Zero resets the frame to all-zero bytes.
func (p *PhysMem) Zero(id FrameID) {
	p.release(p.get(id))
}

// IsZero reports whether every byte of the frame is zero.
func (p *PhysMem) IsZero(id FrameID) bool {
	f := p.get(id)
	return f.data == nil || isZeroBytes(f.data)
}

// Equal reports whether two frames hold identical bytes.
func (p *PhysMem) Equal(a, b FrameID) bool {
	fa, fb := p.get(a), p.get(b)
	switch {
	case fa.data == nil && fb.data == nil:
		return true
	case fa.data == nil:
		return isZeroBytes(fb.data)
	case fb.data == nil:
		return isZeroBytes(fa.data)
	}
	return bytes.Equal(fa.data, fb.data)
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
