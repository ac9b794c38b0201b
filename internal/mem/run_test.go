package mem

import (
	"bytes"
	"testing"
)

func TestRestoreRunMatchesPerFrameRestore(t *testing.T) {
	p := New()
	ids := []FrameID{p.Alloc(), p.Alloc(), p.Alloc()}
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i%250 + 1)
	}
	p.RestoreRun(ids, data)

	q := New()
	qids := []FrameID{q.Alloc(), q.Alloc(), q.Alloc()}
	for i, id := range qids {
		q.RestoreInto(id, data[i*PageSize:(i+1)*PageSize])
	}
	buf1, buf2 := make([]byte, PageSize), make([]byte, PageSize)
	for i := range ids {
		p.ReadAt(ids[i], 0, buf1)
		q.ReadAt(qids[i], 0, buf2)
		if !bytes.Equal(buf1, buf2) {
			t.Fatalf("frame %d: batch restore differs from per-frame restore", i)
		}
	}
}

func TestRestoreRunNilZeroes(t *testing.T) {
	p := New()
	ids := []FrameID{p.Alloc(), p.Alloc()}
	for _, id := range ids {
		p.WriteWord(id, 0, 0xFF)
	}
	p.RestoreRun(ids, nil)
	for _, id := range ids {
		if !p.IsZero(id) {
			t.Fatalf("frame %d not zeroed", id)
		}
		if p.Bytes(id) != 0 {
			t.Fatalf("frame %d still materialized after nil restore", id)
		}
	}
}

func TestRestoreRunLengthMismatchPanics(t *testing.T) {
	p := New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched data length")
		}
	}()
	p.RestoreRun([]FrameID{p.Alloc()}, make([]byte, PageSize-1))
}

func TestEqualMixedMaterialization(t *testing.T) {
	p := New()
	lazy, materializedZero, content := p.Alloc(), p.Alloc(), p.Alloc()
	p.WriteWord(materializedZero, 0, 1)
	p.WriteWord(materializedZero, 0, 0) // stays materialized, all-zero bytes
	p.WriteWord(content, 0, 7)
	if !equal(p, lazy, materializedZero) {
		t.Fatal("lazy zero frame != materialized zero frame")
	}
	if !equal(p, materializedZero, lazy) {
		t.Fatal("equal not symmetric for zero frames")
	}
	if equal(p, lazy, content) || equal(p, content, materializedZero) {
		t.Fatal("equal missed differing content")
	}
}
