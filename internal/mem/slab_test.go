package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// modelFrame is the reference model's frame: a refcount and a page of bytes,
// nothing lazy, nothing shared, nothing recycled.
type modelFrame struct {
	refs int
	data [PageSize]byte
}

// slabModel drives a PhysMem and a map of modelFrames with the same
// operations and holds the PhysMem to the map.
type slabModel struct {
	t    *testing.T
	rng  *rand.Rand
	p    *PhysMem
	live map[FrameID]*modelFrame
	ids  []FrameID // the keys of live, in allocation order (deterministic picks)
	peak int       // most page buffers ever materialised at once
}

func (m *slabModel) failf(format string, args ...any) bool {
	m.t.Helper()
	m.t.Errorf(format, args...)
	return false
}

func (m *slabModel) pick() FrameID { return m.ids[m.rng.Intn(len(m.ids))] }

func (m *slabModel) add(id FrameID) *modelFrame {
	if _, dup := m.live[id]; dup || id == NoFrame {
		m.t.Fatalf("Alloc/Clone returned frame %d, which is live or invalid", id)
	}
	f := &modelFrame{refs: 1}
	m.live[id] = f
	m.ids = append(m.ids, id)
	return f
}

func (m *slabModel) unref(id FrameID) {
	m.p.Unref(id)
	f := m.live[id]
	if f.refs--; f.refs == 0 {
		delete(m.live, id)
		i := 0
		for m.ids[i] != id {
			i++
		}
		m.ids = append(m.ids[:i], m.ids[i+1:]...)
	}
}

// bytesIn returns n random bytes, all zero one time in four (zero writes take
// the lazily-zero short cuts).
func (m *slabModel) bytesIn(n int) []byte {
	buf := make([]byte, n)
	if m.rng.Intn(4) != 0 {
		m.rng.Read(buf)
	}
	return buf
}

// extent returns a random non-empty byte range of a page.
func (m *slabModel) extent() (lo, hi int) {
	lo = m.rng.Intn(PageSize)
	return lo, lo + 1 + m.rng.Intn(PageSize-lo)
}

// step applies one random operation to both sides and returns the frames it
// may have changed.
func (m *slabModel) step() []FrameID {
	p := m.p
	if len(m.ids) == 0 {
		return []FrameID{m.allocWritten()}
	}
	switch op := m.rng.Intn(12); op {
	case 0, 1:
		return []FrameID{m.allocWritten()}
	case 2:
		id := m.pick()
		p.Ref(id)
		m.live[id].refs++
		return []FrameID{id}
	case 3:
		m.unref(m.pick())
		return nil
	case 4:
		id, off, v := m.pick(), m.rng.Intn(PageSize-WordSize+1), m.rng.Uint64()>>uint(m.rng.Intn(2)*64)
		p.WriteWord(id, off, v)
		for i := 0; i < WordSize; i++ {
			m.live[id].data[off+i] = byte(v >> (8 * i))
		}
		return []FrameID{id}
	case 5:
		id := m.pick()
		lo, hi := m.extent()
		buf := m.bytesIn(hi - lo)
		p.WriteAt(id, lo, buf)
		copy(m.live[id].data[lo:], buf)
		return []FrameID{id}
	case 6:
		id := m.pick()
		p.Zero(id)
		m.live[id].data = [PageSize]byte{}
		return []FrameID{id}
	case 7:
		src := m.pick()
		dst := p.Clone(src)
		m.add(dst).data = m.live[src].data
		return []FrameID{dst, src}
	case 8:
		dst, src := m.pick(), m.pick()
		p.Copy(dst, src)
		m.live[dst].data = m.live[src].data
		return []FrameID{dst, src}
	case 9:
		// CopyExtent's contract: dst equals src outside the extent. Make it
		// so, scribble inside, and the copy must bring dst back to src.
		dst, src := m.pick(), m.pick()
		if dst == src {
			return nil
		}
		lo, hi := m.extent()
		p.Copy(dst, src)
		p.WriteAt(dst, lo, m.bytesIn(hi-lo))
		p.CopyExtent(dst, src, lo, hi)
		m.live[dst].data = m.live[src].data
		return []FrameID{dst, src}
	case 10:
		// RestoreExtent, same contract, against a page of bytes (or nil).
		id := m.pick()
		lo, hi := m.extent()
		var snap []byte
		if m.rng.Intn(4) != 0 {
			snap = m.bytesIn(PageSize)
		}
		p.RestoreInto(id, snap)
		p.WriteAt(id, lo, m.bytesIn(hi-lo))
		p.RestoreExtent(id, snap, lo, hi)
		m.live[id].data = [PageSize]byte{}
		copy(m.live[id].data[:], snap)
		return []FrameID{id}
	default:
		// RestoreExtent into a lazily-zero frame: the contract holds when the
		// snapshot is zero outside the extent, and the frame's buffer — fresh
		// from a slab or recycled with another frame's bytes in it — must
		// read as the snapshot everywhere.
		id := m.pick()
		lo, hi := m.extent()
		snap := make([]byte, PageSize)
		m.rng.Read(snap[lo:hi])
		p.Zero(id)
		p.RestoreExtent(id, snap, lo, hi)
		copy(m.live[id].data[:], snap)
		return []FrameID{id}
	}
}

// allocWritten allocates a frame and, three times in four, writes a word to
// it: frames that materialise are what carve slabs.
func (m *slabModel) allocWritten() FrameID {
	id := m.p.Alloc()
	f := m.add(id)
	if m.rng.Intn(4) != 0 {
		off := m.rng.Intn(PageSize/WordSize) * WordSize
		m.p.WriteWord(id, off, 0x0101010101010101)
		for i := 0; i < WordSize; i++ {
			f.data[off+i] = 1
		}
	}
	return id
}

// check holds the given frames, and the pool's counters, to the model; all
// is a full sweep that also looks for aliased buffers.
func (m *slabModel) check(touched []FrameID, all bool) bool {
	p := m.p
	if p.InUse() != len(m.live) {
		return m.failf("InUse() = %d, model has %d live frames", p.InUse(), len(m.live))
	}
	mat := p.carved - len(p.bufs)
	m.peak = max(m.peak, mat)
	if got, limit := p.carved+len(p.slab)/PageSize, m.peak+max(4, m.peak/32); got > limit {
		return m.failf("%d pages of slab allocated for a peak of %d materialised frames, limit %d", got, m.peak, limit)
	}
	if all {
		touched = m.ids
	}
	var buf [PageSize]byte
	for _, id := range touched {
		f, ok := m.live[id]
		if !ok {
			continue // touched, then freed by the same step
		}
		if p.Refs(id) != f.refs {
			return m.failf("frame %d: Refs = %d, model %d", id, p.Refs(id), f.refs)
		}
		p.ReadAt(id, 0, buf[:])
		if buf != f.data {
			return m.failf("frame %d: contents differ from the model", id)
		}
		off := m.rng.Intn(PageSize - WordSize + 1)
		var w uint64
		for i := 0; i < WordSize; i++ {
			w |= uint64(f.data[off+i]) << (8 * i)
		}
		if got := p.ReadWord(id, off); got != w {
			return m.failf("frame %d: ReadWord(%d) = %#x, model %#x", id, off, got, w)
		}
		if p.IsZero(id) != (f.data == [PageSize]byte{}) {
			return m.failf("frame %d: IsZero = %v disagrees with the model", id, p.IsZero(id))
		}
		if d := p.frames[id].data; d != nil && (len(d) != PageSize || cap(d) != PageSize) {
			return m.failf("frame %d: buffer len %d cap %d, want one page exactly", id, len(d), cap(d))
		}
	}
	if !all {
		return true
	}
	// Every page buffer — a live frame's or a released one awaiting reuse —
	// is its own page: no two start at the same byte, and with cap == PageSize
	// none can reach into the next.
	seen := make(map[*byte]bool, p.carved)
	live := 0
	note := func(d []byte, what string, id int) bool {
		if seen[&d[0]] {
			return m.failf("%s %d shares its page buffer with another", what, id)
		}
		seen[&d[0]] = true
		return true
	}
	for _, id := range m.ids {
		if d := p.frames[id].data; d != nil {
			live++
			if !note(d, "frame", int(id)) {
				return false
			}
		}
	}
	for i, d := range p.bufs {
		if cap(d) != PageSize {
			return m.failf("released buffer %d: cap %d, want one page", i, cap(d))
		}
		if !note(d, "released buffer", i) {
			return false
		}
	}
	if live != mat {
		return m.failf("%d live frames hold a buffer, the pool's counters say %d", live, mat)
	}
	return true
}

// TestSlabMatchesReferenceModel: whatever sequence of operations runs, every
// read equals a plain map of refcounted pages, InUse counts the map's live
// frames (not slab capacity), every page buffer is exactly one page that no
// other frame or released buffer shares, and the slabs allocated never exceed
// the most buffers ever needed at once plus one slab of slack. Sequences run
// long enough to cross dozens of slab boundaries and, in the larger cases,
// into the proportional part of the growth rule.
func TestSlabMatchesReferenceModel(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &slabModel{t: t, rng: rng, p: New(), live: map[FrameID]*modelFrame{}}
		if rng.Intn(4) == 0 {
			// A cold start's worth of frames first: past 128 carved, slabs
			// grow with the pool.
			for n := 150 + rng.Intn(300); n > 0; n-- {
				m.allocWritten()
			}
		}
		for n := 100 + rng.Intn(900); n > 0; n-- {
			touched := m.step()
			if !m.check(touched, n%97 == 1) {
				return false
			}
		}
		for len(m.ids) > 0 {
			id := m.ids[len(m.ids)-1]
			for r := m.live[id].refs; r > 0; r-- {
				m.unref(id)
			}
		}
		return m.check(nil, true) && m.p.InUse() == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledFramesCarryNoSecret is the wipe property at the frame level:
// frames filled with a secret and freed leave it in their recycled buffers
// (release does not scrub — materialize does, on reuse), so every way a frame
// can come to hold a buffer must hide it. Frames are taken back through every
// such entry point until the recycled buffers are used up and fresh slab pages
// are being carved, and no byte of the secret may show outside what the caller
// itself wrote.
func TestRecycledFramesCarryNoSecret(t *testing.T) {
	const secret = 0xA5
	secrets := bytes.Repeat([]byte{secret}, PageSize)
	// plain returns n bytes that are neither zero nor the secret.
	plain := func(rng *rand.Rand, n int) []byte {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(1 + rng.Intn(0x7F))
		}
		return buf
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New()
		n := 1 + rng.Intn(48)
		ids := make([]FrameID, n)
		for i := range ids {
			ids[i] = p.Alloc()
			p.WriteAt(ids[i], 0, secrets)
		}
		for _, j := range rng.Perm(n) {
			p.Unref(ids[j])
		}
		for fresh := 8; fresh > 0; {
			if len(p.bufs) == 0 {
				fresh--
			}
			want := make([]byte, PageSize)
			lo := rng.Intn(PageSize - WordSize)
			hi := lo + 1 + rng.Intn(PageSize-lo)
			var id FrameID
			switch rng.Intn(7) {
			case 0: // a word into a zero frame
				id = p.Alloc()
				p.WriteWord(id, lo, 0x0102030405060708)
				copy(want[lo:], []byte{8, 7, 6, 5, 4, 3, 2, 1})
			case 1: // a partial write into a zero frame
				id = p.Alloc()
				copy(want[lo:hi], plain(rng, hi-lo))
				p.WriteAt(id, lo, want[lo:hi])
			case 2: // a partial restore into a zero frame
				id = p.Alloc()
				copy(want[lo:hi], plain(rng, hi-lo))
				p.RestoreExtent(id, want, lo, hi)
			case 3: // a whole-page restore: the raw path, overwritten in full
				id = p.Alloc()
				copy(want, plain(rng, PageSize))
				p.RestoreInto(id, want)
			case 4: // a clone of a lazily-zero frame
				src := p.Alloc()
				id = p.Clone(src)
				p.Unref(src)
			case 5: // a clone of a written frame: the raw path again
				src := p.Alloc()
				copy(want[lo:hi], plain(rng, hi-lo))
				p.WriteAt(src, lo, want[lo:hi])
				id = p.Clone(src)
				p.Unref(src)
			default: // nothing but a read
				id = p.Alloc()
			}
			got := frameBytes(p, id)
			if i := bytes.IndexByte(got, secret); i >= 0 {
				t.Errorf("seed %d: frame taken back holds a secret byte at offset %d", seed, i)
				return false
			}
			if !bytes.Equal(got, want) {
				t.Errorf("seed %d: frame taken back differs from what its caller wrote", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
