package core

import (
	"testing"

	"groundhog/internal/mem"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

func cowOptions() Options {
	o := DefaultOptions()
	o.Store = StoreCoW
	return o
}

func TestCoWStoreSnapshotIsCheap(t *testing.T) {
	mkCost := func(store StoreKind) sim.Duration {
		opts := DefaultOptions()
		opts.Store = store
		_, _, m := newManagedProcess(t, 1, 512, opts)
		st, err := m.TakeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		return st.Duration
	}
	eager, cow := mkCost(StoreCopy), mkCost(StoreCoW)
	if cow >= eager {
		t.Fatalf("CoW snapshot %v not cheaper than eager copy %v", cow, eager)
	}
}

func TestCoWStoreRestoresSecrets(t *testing.T) {
	_, p, m := newManagedProcess(t, 2, 16, cowOptions())
	heap := p.AS.HeapBase()
	p.AS.WriteWord(heap+4*mem.PageSize, 0x5EC4E7)
	if _, err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	if got := p.AS.ReadWord(heap + 4*mem.PageSize); got != 0x1004 {
		t.Fatalf("restored word = %#x, want snapshot value 0x1004", got)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestCoWStoreMemoryProportionalToDirtySet(t *testing.T) {
	_, p, m := newManagedProcess(t, 1, 256, cowOptions())
	if got := m.StateStoreBytes(); got != 0 {
		t.Fatalf("CoW store holds %d bytes before any writes, want 0", got)
	}
	heap := p.AS.HeapBase()
	// Dirty 10 pages: the store's materialized memory is exactly the 10
	// preserved originals.
	for i := 0; i < 10; i++ {
		p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), 0xBAD)
	}
	if got := m.StateStoreBytes(); got != 10*mem.PageSize {
		t.Fatalf("store bytes = %d after 10 dirty pages, want %d", got, 10*mem.PageSize)
	}
	// Compare with the eager store, which materializes everything with
	// non-zero contents immediately.
	_, p2, m2 := newManagedProcess(t, 1, 256, DefaultOptions())
	_ = p2
	if eager := m2.StateStoreBytes(); eager != 256*mem.PageSize {
		t.Fatalf("eager store bytes = %d, want %d", eager, 256*mem.PageSize)
	}
}

func TestCoWStoreChargesOneTimeFault(t *testing.T) {
	_, p, m := newManagedProcess(t, 1, 64, cowOptions())
	_ = m
	heap := p.AS.HeapBase()
	p.AS.ResetFaults()
	meter := sim.NewMeter()
	p.AS.SetMeter(meter)
	// First write to a page: CoW copy (critical path, §5.5) + SD arming.
	p.AS.WriteWord(heap, 1)
	if f := p.AS.Faults(); f.CoW != 1 {
		t.Fatalf("CoW faults = %d, want 1", f.CoW)
	}
	// Second write to the same page: no further copy.
	p.AS.WriteWord(heap, 2)
	if f := p.AS.Faults(); f.CoW != 1 {
		t.Fatalf("repeat write re-copied: %d CoW faults", f.CoW)
	}
}

func TestCoWStoreSurvivesRepeatedCycles(t *testing.T) {
	k, p, m := newManagedProcess(t, 2, 32, cowOptions())
	heap := p.AS.HeapBase()
	framesAfterSnap := k.Phys.InUse()
	for cycle := 0; cycle < 20; cycle++ {
		p.AS.WriteWord(heap+vm.Addr(cycle%32)*mem.PageSize, uint64(cycle))
		if _, err := p.AS.Mmap(2*mem.PageSize, vm.ProtRW, vm.KindAnon, "req"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Restore(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	// Frame growth is bounded by the store's preserved originals (one per
	// unique dirtied page), not by the cycle count.
	if grown := k.Phys.InUse() - framesAfterSnap; grown > 40 {
		t.Fatalf("frames grew by %d over 20 cycles", grown)
	}
}

func TestCoWStoreReleasedOnResnapshot(t *testing.T) {
	k, p, m := newManagedProcess(t, 1, 32, cowOptions())
	p.AS.WriteWord(p.AS.HeapBase(), 1) // diverge one page
	before := k.Phys.InUse()
	if _, err := m.TakeSnapshot(); err != nil {
		t.Fatal(err)
	}
	// The old store's preserved original is dropped; the new store shares
	// frames again.
	if k.Phys.InUse() > before {
		t.Fatalf("re-snapshot leaked frames: %d -> %d", before, k.Phys.InUse())
	}
}
