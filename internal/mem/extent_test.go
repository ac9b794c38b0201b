package mem

import (
	"bytes"
	"testing"
)

// patterned returns one page of non-zero bytes; pages of seeds that differ
// above bit 0 differ at every offset.
func patterned(seed byte) []byte {
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = byte(i%251) ^ seed | 1
	}
	return page
}

func frameBytes(p *PhysMem, id FrameID) []byte {
	buf := make([]byte, PageSize)
	p.ReadAt(id, 0, buf)
	return buf
}

// equal reports whether two frames read back the same bytes.
func equal(p *PhysMem, a, b FrameID) bool {
	return bytes.Equal(frameBytes(p, a), frameBytes(p, b))
}

// TestRestoreExtentCopiesOnlyTheExtent: bytes inside [lo, hi) come from the
// source, bytes outside keep what the frame held — for the byte source and
// the frame source alike, including an extent that ends at the frame's end.
func TestRestoreExtentCopiesOnlyTheExtent(t *testing.T) {
	for _, ext := range [][2]int{{0, 8}, {64, 72}, {100, 3000}, {PageSize - 8, PageSize}, {1, PageSize}} {
		lo, hi := ext[0], ext[1]
		old, src := patterned(0x10), patterned(0x20)
		want := append([]byte(nil), old...)
		copy(want[lo:hi], src[lo:hi])

		p := New()
		f, s := p.Alloc(), p.Alloc()
		p.writeAt(f, 0, old)
		p.RestoreExtent(f, src, lo, hi)
		if !bytes.Equal(frameBytes(p, f), want) {
			t.Errorf("RestoreExtent [%d,%d): frame is not old outside the extent and src inside it", lo, hi)
		}

		p.writeAt(f, 0, old)
		p.writeAt(s, 0, src)
		p.CopyExtent(f, s, lo, hi)
		if !bytes.Equal(frameBytes(p, f), want) {
			t.Errorf("CopyExtent [%d,%d): frame is not old outside the extent and src inside it", lo, hi)
		}
	}
}

// TestRestoreExtentIntoLazyZeroFrame: a partial extent into a frame with no
// buffer must zero-materialize it first — a recycled buffer's stale bytes
// must not show through outside the extent.
func TestRestoreExtentIntoLazyZeroFrame(t *testing.T) {
	p := New()
	stale := p.Alloc()
	p.writeAt(stale, 0, patterned(0x30))
	p.Unref(stale) // its buffer goes to the reuse pool, contents intact

	f := p.Alloc()
	src := patterned(0x40)
	p.RestoreExtent(f, src, 128, 136)
	want := make([]byte, PageSize)
	copy(want[128:136], src[128:136])
	if !bytes.Equal(frameBytes(p, f), want) {
		t.Fatal("partial extent into a lazily-zero frame left non-zero bytes outside it")
	}
}

// TestRestoreExtentZeroSourceReleases: the caller guarantees the frame equals
// the source outside the extent, so a zero source means a zero page — the
// frame goes back to lazily zero, as a whole-page restore of nil does.
func TestRestoreExtentZeroSourceReleases(t *testing.T) {
	p := New()
	f, zero := p.Alloc(), p.Alloc()
	p.WriteWord(f, 64, 0xFF)
	p.RestoreExtent(f, nil, 64, 72)
	if p.Bytes(f) != 0 || !p.IsZero(f) {
		t.Fatal("RestoreExtent(nil) did not release the frame")
	}
	p.WriteWord(f, 64, 0xFF)
	p.CopyExtent(f, zero, 64, 72)
	if p.Bytes(f) != 0 || !p.IsZero(f) {
		t.Fatal("CopyExtent from a lazily-zero frame did not release the destination")
	}
}

// TestRestoreExtentEmptyIsNoOp: nothing written, nothing copied — not even a
// materialization or a release.
func TestRestoreExtentEmptyIsNoOp(t *testing.T) {
	p := New()
	lazy, full := p.Alloc(), p.Alloc()
	old := patterned(0x50)
	p.writeAt(full, 0, old)
	for _, off := range []int{0, 64, PageSize} {
		p.RestoreExtent(lazy, patterned(0x60), off, off)
		p.RestoreExtent(full, nil, off, off)
		p.CopyExtent(full, lazy, off, off)
	}
	if p.Bytes(lazy) != 0 {
		t.Fatal("empty extent materialized a lazily-zero frame")
	}
	if !bytes.Equal(frameBytes(p, full), old) {
		t.Fatal("empty extent changed the frame")
	}
}

// TestFullExtentEqualsRunCopies: over the whole page the extent forms are
// the batch forms, byte for byte, for content, zero and lazily-zero frames.
func TestFullExtentEqualsRunCopies(t *testing.T) {
	build := func() (*PhysMem, []FrameID, []FrameID) {
		p := New()
		dst := []FrameID{p.Alloc(), p.Alloc(), p.Alloc()}
		src := []FrameID{p.Alloc(), p.Alloc(), p.Alloc()}
		p.writeAt(dst[0], 0, patterned(1)) // content <- content
		p.writeAt(src[0], 0, patterned(2))
		p.writeAt(dst[1], 0, patterned(3)) // content <- lazily zero
		p.writeAt(src[2], 0, patterned(4)) // lazily zero <- content
		return p, dst, src
	}
	same := func(what string, p, q *PhysMem, a, b []FrameID) {
		t.Helper()
		for i := range a {
			if !bytes.Equal(frameBytes(p, a[i]), frameBytes(q, b[i])) {
				t.Errorf("%s: frame %d differs", what, i)
			}
			if p.Bytes(a[i]) != q.Bytes(b[i]) {
				t.Errorf("%s: frame %d materialization differs", what, i)
			}
		}
	}

	p, pd, ps := build()
	q, qd, qs := build()
	p.CopyRun(pd, ps)
	for i := range qd {
		q.CopyExtent(qd[i], qs[i], 0, PageSize)
	}
	same("CopyRun vs CopyExtent", p, q, pd, qd)

	arena := append(append(patterned(5), make([]byte, PageSize)...), patterned(6)...)
	p, pd, _ = build()
	q, qd, _ = build()
	p.RestoreRun(pd, arena)
	for i := range qd {
		q.RestoreExtent(qd[i], arena[i*PageSize:(i+1)*PageSize], 0, PageSize)
	}
	same("RestoreRun vs RestoreExtent", p, q, pd, qd)

	p, pd, _ = build()
	q, qd, _ = build()
	p.RestoreRun(pd, nil)
	for i := range qd {
		q.RestoreExtent(qd[i], nil, 0, PageSize)
	}
	same("RestoreRun(nil) vs RestoreExtent(nil)", p, q, pd, qd)
}

func TestExtentOutOfRangePanics(t *testing.T) {
	for _, ext := range [][2]int{{-8, 8}, {72, 64}, {0, PageSize + 1}, {PageSize, PageSize + 8}} {
		for _, frameSrc := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("extent [%d,%d) (frame source %v): no panic", ext[0], ext[1], frameSrc)
					}
				}()
				p := New()
				f, s := p.Alloc(), p.Alloc()
				if frameSrc {
					p.CopyExtent(f, s, ext[0], ext[1])
				} else {
					p.RestoreExtent(f, patterned(7), ext[0], ext[1])
				}
			}()
		}
	}
}
