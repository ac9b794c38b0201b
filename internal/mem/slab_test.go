package mem

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"groundhog/internal/spare"
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
	// spared holds every slab seen on the spare list: a slab of p's outside
	// it is one p made.
	spared map[*byte]bool
	// lent holds the pages p has lent and the model's copy of what their
	// borrower wrote, in lending order (deterministic picks).
	lent []lentPage
}

// lentPage is one page LendPage lent and the bytes its borrower wrote to it.
type lentPage struct {
	page *[PageSize]byte
	data [PageSize]byte
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
	switch op := m.rng.Intn(14); op {
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
		p.writeAt(id, lo, buf)
		copy(m.live[id].data[lo:], buf)
		return []FrameID{id}
	case 6:
		id := m.pick()
		p.RestoreInto(id, nil)
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
		p.writeAt(dst, lo, m.bytesIn(hi-lo))
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
		p.writeAt(id, lo, m.bytesIn(hi-lo))
		p.RestoreExtent(id, snap, lo, hi)
		m.live[id].data = [PageSize]byte{}
		copy(m.live[id].data[:], snap)
		return []FrameID{id}
	case 12:
		m.lend()
		return nil
	case 13:
		if len(m.lent) > 0 {
			m.giveBack(m.rng.Intn(len(m.lent)))
		}
		return nil
	default:
		// RestoreExtent into a lazily-zero frame: the contract holds when the
		// snapshot is zero outside the extent, and the frame's buffer — fresh
		// from a slab or recycled with another frame's bytes in it — must
		// read as the snapshot everywhere.
		id := m.pick()
		lo, hi := m.extent()
		snap := make([]byte, PageSize)
		m.rng.Read(snap[lo:hi])
		p.RestoreInto(id, nil)
		p.RestoreExtent(id, snap, lo, hi)
		copy(m.live[id].data[:], snap)
		return []FrameID{id}
	}
}

// lend borrows a page from the PhysMem and, as a borrower must, writes it
// whole.
func (m *slabModel) lend() {
	l := lentPage{page: m.p.LendPage()}
	m.rng.Read(l.data[:])
	*l.page = l.data
	m.lent = append(m.lent, l)
}

// giveBack returns lent page i, which must still hold what its borrower
// wrote.
func (m *slabModel) giveBack(i int) bool {
	l := m.lent[i]
	m.lent = append(m.lent[:i], m.lent[i+1:]...)
	intact := *l.page == l.data
	m.p.ReturnPage(l.page)
	if !intact {
		return m.failf("a lent page changed while its borrower held it")
	}
	return true
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
// also sweeps every live frame against it.
func (m *slabModel) check(touched []FrameID, all bool) bool {
	p := m.p
	if p.InUse() != len(m.live) {
		return m.failf("InUse() = %d, model has %d live frames", p.InUse(), len(m.live))
	}
	if p.Lent() != len(m.lent) {
		return m.failf("Lent() = %d, model has %d lent pages", p.Lent(), len(m.lent))
	}
	mat := p.carved - len(p.bufs)
	m.peak = max(m.peak, mat)
	// Slabs taken from the spare list may be any size; the ones this PhysMem
	// made itself are bounded by what it ever needed at once plus one slab.
	made := 0
	for _, s := range p.slabs {
		if !m.spared[&s[0]] {
			stride := modelStride(len(s))
			if stride == 0 {
				return m.failf("slab of %d bytes is neither whole pages nor whole coloured pages", len(s))
			}
			made += len(s) / stride
		}
	}
	if limit := m.peak + max(4, m.peak/32); made > limit {
		return m.failf("%d pages of slab made for a peak of %d materialised frames, limit %d", made, m.peak, limit)
	}
	if all {
		touched = m.ids
		for _, l := range m.lent {
			if *l.page != l.data {
				return m.failf("a lent page changed while its borrower held it")
			}
		}
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
	return true
}

// noteSpares records every slab now on the spare list, so check can tell a
// slab a PhysMem took from there from one it made.
func noteSpares(spared map[*byte]bool) {
	for _, s := range peek(&spareSlabs) {
		spared[&s[0]] = true
	}
}

// peek returns what l holds, bottom first, and leaves it as it was. Call it
// while no other goroutine uses l.
func peek[T any](l *spare.List[T]) []T {
	var vs []T
	for v, ok := l.Take(); ok; v, ok = l.Take() {
		vs = append(vs, v)
	}
	slices.Reverse(vs)
	l.Put(vs...)
	return vs
}

// modelStride is the reference model's rule for where a slab's pages start,
// written out apart from slabStride: a slab of fewer than 8 pages is whole
// pages, 4096 bytes apart; from 8 pages on, each page is followed by one
// 64-byte line that no buffer covers, 4160 bytes apart. It returns 0 for a
// slab that is neither.
func modelStride(n int) int {
	switch {
	case n > 0 && n < 8*4096 && n%4096 == 0:
		return 4096
	case n >= 8*4096 && n%4160 == 0:
		return 4160
	}
	return 0
}

// checkOwnership is the sweep across PhysMems: every slab page is held by one
// PhysMem or by the spare list, never two; every page buffer — a live frame's,
// a lent page, a released one awaiting reuse, an uncarved one in a slab's
// tail — is exactly one page, starts where a page of a slab of its own
// PhysMem starts (never on the spare list, never in the gap after a page of
// a coloured slab) and is no other buffer's; and each PhysMem's counters
// agree with the buffers its live frames and borrowers hold. No page buffer
// is reachable from two PhysMems.
func checkOwnership(t *testing.T, ms []*slabModel) bool {
	t.Helper()
	const spareOwner = -1
	owner := map[*byte]int{}
	hold := func(s []byte, who int) bool {
		stride := modelStride(len(s))
		if stride == 0 {
			t.Errorf("slab of %d bytes is neither whole pages nor whole coloured pages", len(s))
			return false
		}
		for off := 0; off < len(s); off += stride {
			if prev, dup := owner[&s[off]]; dup {
				t.Errorf("slab page held by %d and by %d", prev, who)
				return false
			}
			owner[&s[off]] = who
		}
		return true
	}
	for _, s := range peek(&spareSlabs) {
		if !hold(s, spareOwner) {
			return false
		}
	}
	for i, m := range ms {
		for _, s := range m.p.slabs {
			if !hold(s, i) {
				return false
			}
		}
	}
	// Tables move whole: each backing array is one PhysMem's or the spare
	// list's, and a set on the spare list is empty.
	tableOwner := map[any]int{}
	holdTables := func(tb tables, who int) bool {
		for _, a := range []any{backing(tb.frames), backing(tb.free), backing(tb.bufs), backing(tb.slabs)} {
			if a == nil {
				continue
			}
			if prev, dup := tableOwner[a]; dup {
				t.Errorf("a table's backing array is held by %d and by %d", prev, who)
				return false
			}
			tableOwner[a] = who
		}
		return true
	}
	for _, tb := range peek(&spareTables) {
		if len(tb.frames) != 1 || len(tb.free)+len(tb.bufs)+len(tb.slabs) != 0 {
			t.Errorf("spare tables not emptied: %d frame slots, %d free IDs, %d buffers, %d slabs",
				len(tb.frames), len(tb.free), len(tb.bufs), len(tb.slabs))
			return false
		}
		if !holdTables(tb, spareOwner) {
			return false
		}
	}
	for i, m := range ms {
		if !holdTables(m.p.tables, i) {
			return false
		}
	}
	used := map[*byte]bool{}
	for i, m := range ms {
		p := m.p
		use := func(d []byte, what string) bool {
			if len(d) != PageSize || cap(d) != PageSize {
				t.Errorf("PhysMem %d: %s of len %d cap %d, want one page exactly", i, what, len(d), cap(d))
				return false
			}
			if who, ok := owner[&d[0]]; !ok || who != i {
				t.Errorf("PhysMem %d: %s does not start a page of its own slabs", i, what)
				return false
			}
			if used[&d[0]] {
				t.Errorf("PhysMem %d: %s shares its page buffer with another", i, what)
				return false
			}
			used[&d[0]] = true
			return true
		}
		live := 0
		for _, id := range m.ids {
			if d := p.frames[id].data; d != nil {
				live++
				if !use(d, "live frame") {
					return false
				}
			}
		}
		for _, l := range m.lent {
			if !use(l.page[:], "lent page") {
				return false
			}
		}
		for _, d := range p.bufs {
			if !use(d, "released buffer") {
				return false
			}
		}
		if len(p.slab) > 0 {
			stride := modelStride(len(p.slabs[len(p.slabs)-1]))
			if len(p.slab)%stride != 0 {
				return m.failf("PhysMem %d: slab tail of %d bytes is not whole strides of %d", i, len(p.slab), stride)
			}
			for off := 0; off < len(p.slab); off += stride {
				if !use(p.slab[off:off+PageSize:off+PageSize], "slab tail page") {
					return false
				}
			}
		}
		if mat := p.carved - len(p.bufs); live+len(m.lent) != mat {
			return m.failf("PhysMem %d: %d live frames hold a buffer and %d pages are lent, the pool's counters say %d",
				i, live, len(m.lent), mat)
		}
	}
	return true
}

// backing returns a pointer to the first element of s's backing array, or
// nil if it has none: two slices with the same backing share the array.
func backing[T any](s []T) any {
	if cap(s) == 0 {
		return nil
	}
	return &s[:1][0]
}

// tearDown frees every frame of m and returns every lent page, in either
// order, as a platform's teardown does, and checks the PhysMem kept its slabs
// and tables while a page was lent, then handed each of them to the spare
// list and kept none.
func (m *slabModel) tearDown() bool {
	held := append([][]byte(nil), m.p.slabs...)
	returnAll := func() bool {
		for len(m.lent) > 0 {
			if !m.giveBack(len(m.lent) - 1) {
				return false
			}
		}
		return true
	}
	if m.rng.Intn(2) == 0 && !returnAll() {
		return false
	}
	for len(m.ids) > 0 {
		id := m.ids[len(m.ids)-1]
		for r := m.live[id].refs; r > 0; r-- {
			m.unref(id)
		}
	}
	p := m.p
	if len(m.lent) > 0 && len(p.slabs) == 0 {
		return m.failf("handed its slabs back with %d pages lent", len(m.lent))
	}
	if len(m.lent) > 0 && p.frames == nil {
		return m.failf("handed its tables back with %d pages lent", len(m.lent))
	}
	if !returnAll() {
		return false
	}
	if p.InUse() != 0 || p.frames != nil || p.free != nil || p.bufs != nil || p.slabs != nil || len(p.slab) != 0 || p.carved != 0 {
		return m.failf("torn down with InUse %d: kept a frame table %v, %d free IDs, %d released buffers, %d slabs, %d tail bytes, carved %d",
			p.InUse(), p.frames != nil, len(p.free), len(p.bufs), len(p.slabs), len(p.slab), p.carved)
	}
	onSpare := map[*byte]bool{}
	noteSpares(onSpare)
	for _, s := range held {
		if !onSpare[&s[0]] {
			return m.failf("a torn-down PhysMem's slab is not on the spare list")
		}
	}
	noteSpares(m.spared)
	return true
}

// TestSlabMatchesReferenceModel: whatever sequence of operations — lends and
// returns of pages among them — runs on two PhysMems, one of them torn down
// mid-sequence and used again (lending, and maybe returning, before its next
// Alloc), and in half the cases on a third made after the teardown, which
// must start on the tables the torn-down one handed back: every read equals a
// plain map of refcounted pages, InUse counts the map's live frames (not slab
// capacity) and Lent the pages out, every page buffer is exactly one page of
// its own PhysMem's slabs that no other frame, lent page, released buffer or
// PhysMem shares, every table is one PhysMem's or the spare list's, a lent
// page keeps what its borrower wrote, the teardown waits for every lent page
// and then hands every slab and table to the spare list, and the slab pages a
// PhysMem makes (rather than takes spare) never exceed the most buffers it
// needed at once plus one slab of slack. Sequences run long enough to cross
// dozens of slab boundaries and, in the larger cases, into the proportional
// part of the growth rule.
func TestSlabMatchesReferenceModel(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spared := map[*byte]bool{}
		noteSpares(spared)
		ms := make([]*slabModel, 2)
		for i := range ms {
			ms[i] = &slabModel{t: t, rng: rng, p: New(), live: map[FrameID]*modelFrame{}, spared: spared}
		}
		if rng.Intn(4) == 0 {
			// A cold start's worth of frames first: past 128 carved, slabs
			// grow with the pool.
			for n := 150 + rng.Intn(300); n > 0; n-- {
				ms[0].allocWritten()
			}
		}
		steps := 100 + rng.Intn(900)
		teardownAt := rng.Intn(steps)
		for n := steps; n > 0; n-- {
			if n == teardownAt {
				frameTable := backing(ms[0].p.frames)
				if !ms[0].tearDown() {
					return false
				}
				if rng.Intn(2) == 0 {
					// The next platform on the host: its first Alloc takes
					// the tables the drained PhysMem just handed back.
					next := &slabModel{t: t, rng: rng, p: New(), live: map[FrameID]*modelFrame{}, spared: spared}
					next.allocWritten()
					if frameTable != nil && backing(next.p.frames) != frameTable {
						t.Errorf("a new PhysMem did not start on the frame table the drained one handed back")
						return false
					}
					ms = append(ms, next)
				}
				// The drained PhysMem lends before its next Alloc, and may
				// return some or all of it before that Alloc too.
				for k := rng.Intn(3); k > 0; k-- {
					ms[0].lend()
				}
				for len(ms[0].lent) > 0 && rng.Intn(2) == 0 {
					if !ms[0].giveBack(rng.Intn(len(ms[0].lent))) {
						return false
					}
				}
				noteSpares(spared)
				if !checkOwnership(t, ms) {
					return false
				}
			}
			m := ms[rng.Intn(len(ms))]
			touched := m.step()
			noteSpares(spared)
			if !m.check(touched, n%97 == 1) || n%97 == 1 && !checkOwnership(t, ms) {
				return false
			}
		}
		for _, m := range ms {
			if !m.tearDown() || !m.check(nil, true) {
				return false
			}
		}
		return checkOwnership(t, ms)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledFramesCarryNoSecret is the wipe property at the frame level
// and at the host level: frames and lent pages filled with a secret and
// freed or returned leave it in their buffers (release does not scrub —
// materialize does, on reuse), so every way a frame can come to hold a
// buffer must hide it, and a borrower, who overwrites its page whole, must
// read back only what it wrote. In half the cases a frame of the secret's
// PhysMem stays live and the secret waits in its free list; in the other
// half every frame is freed, the PhysMem hands its slabs and tables to the
// spare list, and either a second PhysMem — the next platform on the host —
// takes them or the drained one is used again, in half of those cases after
// lending a page the borrower fills with the secret and returning it before
// the next Alloc. Frames are taken back through every entry point until the
// recycled buffers and slabs are used up and fresh slab pages are being
// carved, and no byte of the secret may show outside what the caller itself
// wrote.
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
		drainSpares()
		a := New()
		var anchor FrameID
		if rng.Intn(2) == 0 {
			anchor = a.Alloc()
		}
		n := 1 + rng.Intn(48)
		ids := make([]FrameID, n)
		for i := range ids {
			ids[i] = a.Alloc()
			a.writeAt(ids[i], 0, secrets)
		}
		// Some secrets sit in lent pages, a snapshot store's; they go back
		// with the frames.
		lent := make([]*[PageSize]byte, rng.Intn(16))
		for i := range lent {
			lent[i] = a.LendPage()
			copy(lent[i][:], secrets)
		}
		for _, j := range rng.Perm(n) {
			a.Unref(ids[j])
		}
		for _, b := range lent {
			a.ReturnPage(b)
		}
		p := a
		if anchor == NoFrame {
			if a.InUse() != 0 || a.Lent() != 0 || len(a.slabs) != 0 || a.frames != nil || spareLen() == 0 {
				t.Errorf("seed %d: PhysMem with no live frame kept its slabs or tables", seed)
				return false
			}
			if rng.Intn(2) == 0 {
				p = New()
			}
			if rng.Intn(2) == 0 {
				// Before its next Alloc the drained PhysMem, or the new one
				// on its tables, lends a page the borrower fills with the
				// secret and gives back.
				b := p.LendPage()
				copy(b[:], secrets)
				p.ReturnPage(b)
			}
		}
		for fresh := 8; fresh > 0; {
			if len(p.bufs) == 0 && spareLen() == 0 && (len(p.slab) == 0 || !p.reused) {
				fresh--
			}
			want := make([]byte, PageSize)
			lo := rng.Intn(PageSize - WordSize)
			hi := lo + 1 + rng.Intn(PageSize-lo)
			var id FrameID
			var got []byte
			switch rng.Intn(8) {
			case 0: // a word into a zero frame
				id = p.Alloc()
				p.WriteWord(id, lo, 0x0102030405060708)
				copy(want[lo:], []byte{8, 7, 6, 5, 4, 3, 2, 1})
			case 1: // a partial write into a zero frame
				id = p.Alloc()
				copy(want[lo:hi], plain(rng, hi-lo))
				p.writeAt(id, lo, want[lo:hi])
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
				p.writeAt(src, lo, want[lo:hi])
				id = p.Clone(src)
				p.Unref(src)
			case 6: // a lent page, overwritten whole by its borrower
				b := p.LendPage()
				copy(want, plain(rng, PageSize))
				copy(b[:], want)
				got = b[:]
			default: // nothing but a read
				id = p.Alloc()
			}
			if id != NoFrame {
				got = frameBytes(p, id)
			}
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

// drainSpares empties the spare list, so a test sees only the slabs and
// tables its own PhysMems hand back.
func drainSpares() {
	for _, ok := spareSlabs.Take(); ok; _, ok = spareSlabs.Take() {
	}
	for _, ok := spareTables.Take(); ok; _, ok = spareTables.Take() {
	}
}

// TestDrainedPoolPassesOnItsTables: a PhysMem that drains passes its
// bookkeeping on with its slabs, so a new PhysMem driven through the same
// sequence — frames allocated and written, half of them freed and allocated
// again off the free list, pages lent, every frame freed and every page
// returned — allocates nothing: its frame table, free lists and slab list
// are the drained one's, emptied, with their capacity.
func TestDrainedPoolPassesOnItsTables(t *testing.T) {
	const frames, pages = 600, 40
	var ids [frames]FrameID
	var lent [pages]*[PageSize]byte
	run := func(p *PhysMem) {
		for i := range ids {
			ids[i] = p.Alloc()
			p.WriteWord(ids[i], 0, uint64(i+1))
		}
		for i := 0; i < frames; i += 2 {
			p.Unref(ids[i])
		}
		for i := 0; i < frames; i += 2 {
			ids[i] = p.Alloc()
		}
		for i := range lent {
			lent[i] = p.LendPage()
		}
		for _, id := range ids {
			p.Unref(id)
		}
		for _, b := range lent {
			p.ReturnPage(b)
		}
	}
	drainSpares()
	run(New())
	p := New()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(p)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n != 0 {
		t.Fatalf("a new PhysMem after a drained one allocated %d bytes, want 0", n)
	}
	if p.InUse() != 0 || p.Lent() != 0 || p.frames != nil {
		t.Fatalf("InUse %d, Lent %d, tables kept %v after the sequence drained", p.InUse(), p.Lent(), p.frames != nil)
	}
}

// TestSlabColorsPageStarts: a pool large enough to make slabs of 8 pages or
// more carves them at a stride of a page and a cache line, so its page
// buffers start at every line offset within a 4 KiB page rather than all at
// the same one; a pool that never carves 256 pages (a live gateway's) makes
// only the whole-page slabs it always made; and a coloured slab handed back
// keeps its stride in the small pool that takes it next.
func TestSlabColorsPageStarts(t *testing.T) {
	written := func(p *PhysMem, n int) []FrameID {
		ids := make([]FrameID, n)
		for i := range ids {
			ids[i] = p.Alloc()
			p.WriteWord(ids[i], 0, uint64(i+1))
		}
		return ids
	}
	freeAll := func(p *PhysMem, ids []FrameID) {
		for _, id := range ids {
			p.Unref(id)
		}
	}

	drainSpares()
	p := New()
	ids := written(p, 4000)
	starts := map[uintptr]bool{}
	for _, id := range ids {
		starts[uintptr(unsafe.Pointer(&p.frames[id].data[0]))%PageSize] = true
	}
	if len(starts) != PageSize/linePad {
		t.Errorf("4000 frames start at %d distinct offsets within a page, want %d", len(starts), PageSize/linePad)
	}
	freeAll(p, ids)

	drainSpares()
	p = New()
	ids = written(p, 100)
	for i, s := range p.slabs {
		if len(s) != 4*PageSize {
			t.Errorf("slab %d of a 100-frame pool is %d bytes, want 4 whole pages", i, len(s))
		}
	}
	for i, id := range ids {
		if d, s := p.frames[id].data, p.slabs[i/4]; &d[0] != &s[i%4*PageSize] {
			t.Errorf("frame %d of a 100-frame pool is not page %d of slab %d", i, i%4, i/4)
		}
	}
	freeAll(p, ids)

	// The big pool's newest slab, coloured, is the first spare a small pool
	// takes.
	drainSpares()
	big := New()
	ids = written(big, 300)
	newest := big.slabs[len(big.slabs)-1]
	freeAll(big, ids)
	small := New()
	ids = written(small, 8)
	s := small.slabs[0]
	if &s[0] != &newest[0] || len(s) < colourPages*(PageSize+linePad) {
		t.Fatalf("the small pool's first slab is not the big pool's newest, coloured one (%d bytes)", len(s))
	}
	for k, id := range ids {
		if d := small.frames[id].data; &d[0] != &s[k*(PageSize+linePad)] || len(d) != PageSize || cap(d) != PageSize {
			t.Errorf("frame %d of the small pool is not page %d of the coloured spare, one page long", k, k)
		}
	}
	freeAll(small, ids)
}

// spareLen reports how many slabs wait on the spare list.
func spareLen() int { return len(peek(&spareSlabs)) }

// TestPhysMemsOnManyGoroutines: PhysMems on distinct goroutines share only
// the spare list. Each goroutine runs its own through rounds of allocate,
// write, check, free everything, so every round ends in a hand-back and
// starts on slabs any goroutine may have handed back. Every fifth round
// carves more than 256 pages, so coloured slabs are made too and pass to
// other goroutines and into small rounds. No page may show a byte its own
// frame was not given, whoever wrote the slab before; under -race the run
// also holds the spare list's locking.
func TestPhysMemsOnManyGoroutines(t *testing.T) {
	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			p := New()
			mark := bytes.Repeat([]byte{byte(w + 1)}, PageSize)
			for r := 0; r < rounds; r++ {
				n := 20 + rng.Intn(300)
				if r%5 == 0 {
					n = 300 + rng.Intn(300)
				}
				ids := make([]FrameID, n)
				want := make([][]byte, len(ids))
				for i := range ids {
					want[i] = make([]byte, PageSize)
					switch rng.Intn(3) {
					case 0: // a word: the page around it must read zero
						off := rng.Intn(PageSize/WordSize) * WordSize
						ids[i] = p.Alloc()
						p.WriteWord(ids[i], off, 0x0101010101010101*uint64(w+1))
						copy(want[i][off:off+WordSize], mark)
					case 1: // a whole page: the raw path
						ids[i] = p.Alloc()
						p.RestoreInto(ids[i], mark)
						copy(want[i], mark)
					default: // a clone of a whole page: the raw path again
						src := p.Alloc()
						p.RestoreInto(src, mark)
						ids[i] = p.Clone(src)
						p.Unref(src)
						copy(want[i], mark)
					}
				}
				for i, id := range ids {
					if !bytes.Equal(frameBytes(p, id), want[i]) {
						t.Errorf("worker %d round %d: frame %d differs from what was written to it", w, r, i)
						return
					}
				}
				for _, id := range ids {
					p.Unref(id)
				}
				if p.InUse() != 0 || len(p.slabs) != 0 {
					t.Errorf("worker %d round %d: InUse %d, %d slabs kept after freeing every frame", w, r, p.InUse(), len(p.slabs))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
