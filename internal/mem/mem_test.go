package mem

import (
	"fmt"
	"testing"
	"testing/quick"
)

// writeAt copies buf into frame bytes [off, off+len(buf)): the tests' way to
// give a frame arbitrary contents.
func (p *PhysMem) writeAt(id FrameID, off int, buf []byte) {
	checkOffset(off, len(buf))
	f := p.get(id)
	if f.data == nil && isZeroBytes(buf) {
		return
	}
	copy(p.materialize(f)[off:], buf)
}

func TestAllocDistinctFrames(t *testing.T) {
	p := New()
	a, b := p.Alloc(), p.Alloc()
	if a == b {
		t.Fatal("Alloc returned the same frame twice")
	}
	if a == NoFrame || b == NoFrame {
		t.Fatal("Alloc returned the invalid frame ID")
	}
	if p.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", p.InUse())
	}
}

func TestWordRoundTrip(t *testing.T) {
	p := New()
	f := p.Alloc()
	p.WriteWord(f, 8, 0xdeadbeefcafebabe)
	if got := p.ReadWord(f, 8); got != 0xdeadbeefcafebabe {
		t.Fatalf("ReadWord = %#x", got)
	}
	if got := p.ReadWord(f, 0); got != 0 {
		t.Fatalf("untouched word = %#x, want 0", got)
	}
}

func TestZeroFrameStaysLazy(t *testing.T) {
	p := New()
	f := p.Alloc()
	p.WriteWord(f, 0, 0) // writing zero must not materialize
	if !p.IsZero(f) {
		t.Fatal("fresh frame not zero")
	}
	if p.Snapshot(f) != nil {
		t.Fatal("zero frame snapshot should be nil")
	}
}

func TestRefcountLifecycle(t *testing.T) {
	p := New()
	f := p.Alloc()
	p.Ref(f)
	if p.Refs(f) != 2 {
		t.Fatalf("refs = %d, want 2", p.Refs(f))
	}
	p.Unref(f)
	if p.Refs(f) != 1 {
		t.Fatalf("refs = %d, want 1", p.Refs(f))
	}
	p.Unref(f)
	if p.InUse() != 0 {
		t.Fatalf("frame not freed: InUse = %d", p.InUse())
	}
	defer func() {
		if recover() == nil {
			t.Error("use after free did not panic")
		}
	}()
	p.ReadWord(f, 0)
}

func TestCloneIsIndependent(t *testing.T) {
	p := New()
	a := p.Alloc()
	p.WriteWord(a, 0, 111)
	b := p.Clone(a)
	if !equal(p, a, b) {
		t.Fatal("clone differs from source")
	}
	p.WriteWord(b, 0, 222)
	if p.ReadWord(a, 0) != 111 {
		t.Fatal("writing clone mutated source")
	}
	if p.ReadWord(b, 0) != 222 {
		t.Fatal("clone write lost")
	}
}

func TestCloneZeroFrameStaysLazy(t *testing.T) {
	p := New()
	a := p.Alloc()
	b := p.Clone(a)
	if !p.IsZero(b) {
		t.Fatal("clone of zero frame not zero")
	}
}

func TestReadWriteAt(t *testing.T) {
	p := New()
	f := p.Alloc()
	in := []byte{1, 2, 3, 4, 5}
	p.writeAt(f, 100, in)
	out := make([]byte, 5)
	p.ReadAt(f, 100, out)
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("ReadAt = %v, want %v", out, in)
		}
	}
	// Reading an untouched region of a materialized frame yields zeros.
	p.ReadAt(f, 0, out)
	for _, b := range out {
		if b != 0 {
			t.Fatalf("untouched bytes non-zero: %v", out)
		}
	}
}

func TestReadAtZeroFrameFillsZeros(t *testing.T) {
	p := New()
	f := p.Alloc()
	buf := []byte{9, 9, 9}
	p.ReadAt(f, 0, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("ReadAt on zero frame did not clear buffer")
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	p := New()
	f := p.Alloc()
	p.WriteWord(f, 16, 42)
	snap := p.Snapshot(f)
	p.WriteWord(f, 16, 99)
	p.WriteWord(f, 24, 7)
	p.RestoreInto(f, snap)
	if p.ReadWord(f, 16) != 42 || p.ReadWord(f, 24) != 0 {
		t.Fatal("restore did not revert frame contents")
	}
}

func TestRestoreNilZeroes(t *testing.T) {
	p := New()
	f := p.Alloc()
	p.WriteWord(f, 0, 5)
	p.RestoreInto(f, nil)
	if !p.IsZero(f) {
		t.Fatal("RestoreInto(nil) did not zero frame")
	}
}

func TestEqualDetectsDifference(t *testing.T) {
	p := New()
	a, b := p.Alloc(), p.Alloc()
	if !equal(p, a, b) {
		t.Fatal("two zero frames unequal")
	}
	p.WriteWord(a, 4088, 1)
	if equal(p, a, b) {
		t.Fatal("differing frames compared equal")
	}
	p.WriteWord(b, 4088, 1)
	if !equal(p, a, b) {
		t.Fatal("identical frames compared unequal")
	}
}

func TestOutOfRangeAccessPanics(t *testing.T) {
	p := New()
	f := p.Alloc()
	cases := []func(){
		func() { p.ReadWord(f, PageSize-4) },
		func() { p.WriteWord(f, -1, 0) },
		func() { p.ReadAt(f, PageSize, make([]byte, 1)) },
		func() { p.writeAt(f, 4000, make([]byte, 200)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: out-of-range access did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestPeakTracksHighWater(t *testing.T) {
	p := New()
	a := p.Alloc()
	b := p.Alloc()
	p.Unref(a)
	p.Unref(b)
	if p.Peak() != 2 {
		t.Fatalf("Peak = %d, want 2", p.Peak())
	}
	if p.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", p.InUse())
	}
}

// Property: a word written at any aligned offset reads back identically and
// survives snapshot/restore.
func TestWordRoundTripProperty(t *testing.T) {
	p := New()
	if err := quick.Check(func(slot uint16, v uint64) bool {
		off := int(slot%(PageSize/WordSize)) * WordSize
		f := p.Alloc()
		defer p.Unref(f)
		p.WriteWord(f, off, v)
		if p.ReadWord(f, off) != v {
			return false
		}
		snap := p.Snapshot(f)
		p.WriteWord(f, off, ^v)
		p.RestoreInto(f, snap)
		return p.ReadWord(f, off) == v
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone always reads back equal to its source, for arbitrary writes.
func TestClonePreservesContentsProperty(t *testing.T) {
	p := New()
	if err := quick.Check(func(writes []struct {
		Slot uint16
		V    uint64
	}) bool {
		f := p.Alloc()
		defer p.Unref(f)
		for _, w := range writes {
			p.WriteWord(f, int(w.Slot%(PageSize/WordSize))*WordSize, w.V)
		}
		c := p.Clone(f)
		defer p.Unref(c)
		return equal(p, f, c)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkWordAcrossPool writes one word at offset 0 of every frame of a
// warm pool, the access pattern of a request touching many pages: with page
// starts at one cache index, the pool's first lines conflict in a few sets
// once it outgrows them. Reported per page written.
func BenchmarkWordAcrossPool(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("frames=%d", n), func(b *testing.B) {
			p := New()
			ids := make([]FrameID, n)
			for i := range ids {
				ids[i] = p.Alloc()
				p.WriteWord(ids[i], 0, 1)
			}
			v := uint64(0)
			for b.Loop() {
				v++
				for _, id := range ids {
					p.WriteWord(id, 0, v)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/page")
			for _, id := range ids {
				p.Unref(id)
			}
		})
	}
}
