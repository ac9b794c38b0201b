package core

import (
	"testing"

	"groundhog/internal/mem"
)

// TestResnapshotVerifies: each snapshot replaces the last, and the process
// verifies against the new one.
func TestResnapshotVerifies(t *testing.T) {
	_, p, m := newManagedProcess(t, 1, 32, DefaultOptions())
	heap := p.AS.HeapBase()
	for i := 0; i < 2; i++ {
		p.AS.WriteWord(heap+mem.PageSize, 0xAB00+uint64(i))
		if _, err := m.TakeSnapshot(); err != nil {
			t.Fatal(err)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("re-snapshot %d does not verify: %v", i, err)
		}
	}
}

// TestResnapshotCoWRecyclesFrames checks the CoW store counterpart: replacing
// a snapshot releases the old frame references (no physical-memory leak).
func TestResnapshotCoWRecyclesFrames(t *testing.T) {
	opts := DefaultOptions()
	opts.Store = StoreCoW
	k, _, m := newManagedProcess(t, 1, 16, opts)
	inUse := k.Phys.InUse()

	for i := 0; i < 2; i++ {
		if _, err := m.TakeSnapshot(); err != nil {
			t.Fatal(err)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("re-snapshot %d does not verify: %v", i, err)
		}
	}
	if got := k.Phys.InUse(); got != inUse {
		t.Fatalf("frames in use after re-snapshots = %d, want %d (leaked references)", got, inUse)
	}
}
