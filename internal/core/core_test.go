package core

import (
	"testing"

	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

// newManagedProcess spawns a function process with an initialized heap, a
// manager attached, and a snapshot taken. The heap holds `heapPages` pages
// seeded with marker values so content restoration is observable.
func newManagedProcess(t *testing.T, threads, heapPages int, opts Options) (*kernel.Kernel, *kernel.Process, *Manager) {
	t.Helper()
	k := kernel.New(kernel.Default())
	p, err := k.Spawn(kernel.ExecSpec{TextPages: 8, DataPages: 4, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	heap := p.AS.HeapBase()
	if _, err := p.AS.Brk(heap + vm.Addr(heapPages*mem.PageSize)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < heapPages; i++ {
		p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), 0x1000+uint64(i))
	}
	m, err := NewManager(k, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TakeSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("fresh snapshot does not verify: %v", err)
	}
	return k, p, m
}

func TestSnapshotStats(t *testing.T) {
	_, p, m := newManagedProcess(t, 2, 10, DefaultOptions())
	st := m.SnapshotStats()
	if st.Pages != p.AS.ResidentPages() {
		t.Fatalf("snapshot pages = %d, resident = %d", st.Pages, p.AS.ResidentPages())
	}
	if st.Duration <= 0 {
		t.Fatal("snapshot has no cost")
	}
	if st.VMAs != p.AS.NumVMAs() {
		t.Fatalf("snapshot VMAs = %d, want %d", st.VMAs, p.AS.NumVMAs())
	}
}

func TestRestoreBeforeSnapshotFails(t *testing.T) {
	k := kernel.New(kernel.Default())
	p, _ := k.Spawn(kernel.ExecSpec{TextPages: 1, Threads: 1})
	m, err := NewManager(k, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Restore(); err == nil {
		t.Fatal("restore before snapshot succeeded")
	}
}

// The core security property: a secret written by one request is gone after
// restore — the page reads back exactly its snapshot contents.
func TestRestoreErasesSecrets(t *testing.T) {
	_, p, m := newManagedProcess(t, 1, 8, DefaultOptions())
	heap := p.AS.HeapBase()

	// Request 1 stashes Alice's secret on pages 2 and 5.
	p.AS.WriteWord(heap+2*mem.PageSize+128, 0xA11CE)
	p.AS.WriteWord(heap+5*mem.PageSize+512, 0x5EC2E7)

	st, err := m.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyPages != 2 {
		t.Fatalf("dirty pages = %d, want 2", st.DirtyPages)
	}
	if st.RestoredPages != 2 {
		t.Fatalf("restored pages = %d, want 2", st.RestoredPages)
	}

	// Request 2 (Bob) sees only pre-snapshot state.
	if got := p.AS.ReadWord(heap + 2*mem.PageSize + 128); got != 0 {
		t.Fatalf("secret survived restore: %#x", got)
	}
	if got := p.AS.ReadWord(heap + 2*mem.PageSize); got != 0x1002 {
		t.Fatalf("snapshot contents lost: %#x", got)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRevertsRegisters(t *testing.T) {
	_, p, m := newManagedProcess(t, 3, 4, DefaultOptions())
	for _, th := range p.Threads {
		th.Regs.GP[3] = 0xBAD
		th.Regs.PC += 0x1000
	}
	if _, err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	for _, th := range p.Threads {
		if th.Regs.GP[3] == 0xBAD {
			t.Fatalf("thread %d registers not restored", th.TID)
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRemovesNewMappings(t *testing.T) {
	_, p, m := newManagedProcess(t, 1, 4, DefaultOptions())
	a, err := p.AS.Mmap(16*mem.PageSize, vm.ProtRW, vm.KindAnon, "request-buffer")
	if err != nil {
		t.Fatal(err)
	}
	p.AS.WriteWord(a, 0xFEED)
	st, err := m.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if st.LayoutOps == 0 {
		t.Fatal("no layout ops injected for new mapping")
	}
	if _, ok := p.AS.FindVMA(a); ok {
		t.Fatal("request mapping survived restore")
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRecreatesRemovedMappings(t *testing.T) {
	k := kernel.New(kernel.Default())
	p, err := k.Spawn(kernel.ExecSpec{TextPages: 4, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A pre-snapshot mapping with content.
	a, err := p.AS.Mmap(4*mem.PageSize, vm.ProtRW, vm.KindFile, "model-cache")
	if err != nil {
		t.Fatal(err)
	}
	p.AS.WriteWord(a+8, 0xCAFE)
	m, err := NewManager(k, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TakeSnapshot(); err != nil {
		t.Fatal(err)
	}
	// The request unmaps it.
	if err := p.AS.Munmap(a, 4*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	v, ok := p.AS.FindVMA(a)
	if !ok {
		t.Fatal("removed mapping not re-created")
	}
	if v.Name != "model-cache" {
		t.Fatalf("re-created mapping lost attributes: %+v", v)
	}
	if got := p.AS.ReadWord(a + 8); got != 0xCAFE {
		t.Fatalf("re-created mapping contents = %#x, want 0xCAFE", got)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRevertsBrk(t *testing.T) {
	_, p, m := newManagedProcess(t, 1, 4, DefaultOptions())
	heap := p.AS.HeapBase()
	snapBrk, _ := p.AS.Brk(0)
	// The request grows the heap and taints the new pages.
	if _, err := p.AS.Brk(snapBrk + 64*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	p.AS.WriteWord(snapBrk+10*mem.PageSize, 0xDEAD)
	if _, err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.AS.Brk(0); got != snapBrk {
		t.Fatalf("brk = %v, want %v", got, snapBrk)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	// Heap contents below the break intact.
	if got := p.AS.ReadWord(heap); got != 0x1000 {
		t.Fatalf("heap base word = %#x", got)
	}
}

func TestRestoreRevertsBrkShrink(t *testing.T) {
	_, p, m := newManagedProcess(t, 1, 8, DefaultOptions())
	snapBrk, _ := p.AS.Brk(0)
	// The request shrinks the heap (frees pages 4..7).
	if _, err := p.AS.Brk(p.AS.HeapBase() + 4*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.AS.Brk(0); got != snapBrk {
		t.Fatalf("brk = %v, want %v", got, snapBrk)
	}
	// Contents of the shrunk-away pages restored from the snapshot.
	if got := p.AS.ReadWord(p.AS.HeapBase() + 6*mem.PageSize); got != 0x1006 {
		t.Fatalf("freed page contents = %#x, want 0x1006", got)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRevertsMprotect(t *testing.T) {
	_, p, m := newManagedProcess(t, 1, 8, DefaultOptions())
	heap := p.AS.HeapBase()
	if err := p.AS.Mprotect(heap+2*mem.PageSize, 2*mem.PageSize, vm.ProtRead); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	// Writable again.
	p.AS.WriteWord(heap+2*mem.PageSize, 1)
}

func TestRestoreDropsFreshPages(t *testing.T) {
	_, p, m := newManagedProcess(t, 1, 2, DefaultOptions())
	// The request reads (demand-zero faults) far into the stack: fresh
	// resident pages with no snapshot content.
	sp := vm.StackTop - 512*1024
	for i := 0; i < 8; i++ {
		p.AS.ReadWord(sp + vm.Addr(i*mem.PageSize))
	}
	resBefore := p.AS.ResidentPages()
	st, err := m.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedPages != 8 {
		t.Fatalf("dropped pages = %d, want 8", st.DroppedPages)
	}
	if p.AS.ResidentPages() != resBefore-8 {
		t.Fatalf("fresh pages not dropped: %d -> %d", resBefore, p.AS.ResidentPages())
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreIsIdempotent(t *testing.T) {
	_, p, m := newManagedProcess(t, 2, 6, DefaultOptions())
	p.AS.WriteWord(p.AS.HeapBase(), 0xF00)
	if _, err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	st, err := m.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtyPages != 0 || st.RestoredPages != 0 {
		t.Fatalf("second restore found work: %+v", st)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRestorePhaseBreakdownSumsToTotal(t *testing.T) {
	_, p, m := newManagedProcess(t, 2, 16, DefaultOptions())
	for i := 0; i < 8; i++ {
		p.AS.WriteWord(p.AS.HeapBase()+vm.Addr(i*mem.PageSize), 9)
	}
	if _, err := p.AS.Mmap(4*mem.PageSize, vm.ProtRW, vm.KindAnon, "x"); err != nil {
		t.Fatal(err)
	}
	st, err := m.Restore()
	if err != nil {
		t.Fatal(err)
	}
	var sum sim.Duration
	for i := range Phases {
		sum += st.PhaseDurations[i]
	}
	if sum != st.Total {
		t.Fatalf("phases sum to %v, total is %v", sum, st.Total)
	}
	for _, must := range []string{PhaseInterrupt, PhaseReadMaps, PhaseScanPages, PhaseRestoreMem, PhaseClearSD, PhaseDetach} {
		if st.PhaseDurations.Of(must) <= 0 {
			t.Fatalf("phase %q has no cost: %+v", must, st.PhaseDurations)
		}
	}
}

// Restore takes its scan's data from the address space's indexes but charges
// what the scan costs the real system: under soft-dirty tracking, exactly
// what reading the pagemap of every region through procfs would be charged —
// with and without a new mapping in the layout, and after the request's
// mremap moved a mapping.
func TestRestoreScanChargeIsThePagemapRead(t *testing.T) {
	_, p, m := newManagedProcess(t, 1, 32, DefaultOptions())
	for _, c := range []struct {
		name        string
		churn, move bool
	}{{"steady", false, false}, {"churn", true, false}, {"churn, moved", true, true}} {
		p.AS.WriteWord(p.AS.HeapBase()+3*mem.PageSize, 9)
		if c.churn {
			if _, err := p.AS.Mmap(100*mem.PageSize, vm.ProtRW, vm.KindAnon, "scratch"); err != nil {
				t.Fatal(err)
			}
		}
		if c.move {
			MoveMapping(t, p.AS)
		}
		read := sim.NewMeter()
		for _, v := range p.AS.VMAs() {
			m.fs.PagemapRangePresent(p, v.Start, v.End, read, nil)
		}
		st, err := m.Restore()
		if err != nil {
			t.Fatal(err)
		}
		if got := st.PhaseDurations.Of(PhaseScanPages); got != read.Total() || got == 0 {
			t.Fatalf("%s: scan phase charged %v, reading every region's pagemap costs %v", c.name, got, read.Total())
		}
	}
}

func TestRestoreCostProportionalToDirtyPages(t *testing.T) {
	_, p, m := newManagedProcess(t, 1, 256, DefaultOptions())
	heap := p.AS.HeapBase()

	dirtyAndRestore := func(n int) sim.Duration {
		for i := 0; i < n; i++ {
			p.AS.WriteWord(heap+vm.Addr(2*i*mem.PageSize), 1) // scattered
		}
		st, err := m.Restore()
		if err != nil {
			t.Fatal(err)
		}
		return st.PhaseDurations.Of(PhaseRestoreMem)
	}
	small := dirtyAndRestore(8)
	large := dirtyAndRestore(64)
	if large < 6*small {
		t.Fatalf("restore-memory cost not proportional: 8 pages %v, 64 pages %v", small, large)
	}
}

func TestCoalescingCheapensContiguousRestores(t *testing.T) {
	run := func(coalesce bool) sim.Duration {
		opts := DefaultOptions()
		opts.Coalesce = coalesce
		_, p, m := newManagedProcess(t, 1, 128, opts)
		heap := p.AS.HeapBase()
		for i := 0; i < 128; i++ { // one fully contiguous run
			p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), 1)
		}
		st, err := m.Restore()
		if err != nil {
			t.Fatal(err)
		}
		return st.PhaseDurations.Of(PhaseRestoreMem)
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("coalescing did not help: with=%v without=%v", with, without)
	}
}

func TestUffdTrackerSkipsFullScan(t *testing.T) {
	mkStats := func(tracker TrackerKind) RestoreStats {
		opts := Options{Tracker: tracker, Coalesce: true}
		_, p, m := newManagedProcess(t, 1, 512, opts)
		p.AS.WriteWord(p.AS.HeapBase(), 1) // one dirty page
		st, err := m.Restore()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	sd := mkStats(TrackSoftDirty)
	uffd := mkStats(TrackUffd)
	if uffd.PhaseDurations.Of(PhaseScanPages) >= sd.PhaseDurations.Of(PhaseScanPages) {
		t.Fatalf("UFFD scan %v not cheaper than SD scan %v",
			uffd.PhaseDurations.Of(PhaseScanPages), sd.PhaseDurations.Of(PhaseScanPages))
	}
	if sd.DirtyPages != 1 || uffd.DirtyPages != 1 {
		t.Fatalf("dirty counts: sd=%d uffd=%d", sd.DirtyPages, uffd.DirtyPages)
	}
}

func TestUffdInFunctionFaultsCostMore(t *testing.T) {
	cost := kernel.Default()
	inFunction := func(tracker TrackerKind) sim.Duration {
		k := kernel.New(cost)
		p, _ := k.Spawn(kernel.ExecSpec{TextPages: 2, Threads: 1})
		if _, err := p.AS.Brk(p.AS.HeapBase() + 64*mem.PageSize); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			p.AS.WriteWord(p.AS.HeapBase()+vm.Addr(i*mem.PageSize), 1)
		}
		m, err := NewManager(k, p, Options{Tracker: tracker, Coalesce: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.TakeSnapshot(); err != nil {
			t.Fatal(err)
		}
		meter := sim.NewMeter()
		p.AS.SetMeter(meter)
		for i := 0; i < 64; i++ {
			p.AS.WriteWord(p.AS.HeapBase()+vm.Addr(i*mem.PageSize), 2)
		}
		return meter.Total()
	}
	sd, uffd := inFunction(TrackSoftDirty), inFunction(TrackUffd)
	if uffd <= sd {
		t.Fatalf("UFFD in-function cost %v not above SD %v (§4.3)", uffd, sd)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	_, p, m := newManagedProcess(t, 1, 4, DefaultOptions())
	p.AS.WriteWord(p.AS.HeapBase()+mem.PageSize, 0x666)
	if err := m.Verify(); err == nil {
		t.Fatal("Verify missed a tampered page")
	}
	if _, err := m.Restore(); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDiffLayoutsMergesAdjacentChanges(t *testing.T) {
	base := []vm.VMA{
		{Start: 0x10000, End: 0x20000, Prot: vm.ProtRW, Kind: vm.KindAnon},
	}
	// Current layout added two adjacent anonymous regions (sorted order).
	cur := []vm.VMA{
		base[0],
		{Start: 0x30000, End: 0x40000, Prot: vm.ProtRW, Kind: vm.KindAnon},
		{Start: 0x40000, End: 0x50000, Prot: vm.ProtRW, Kind: vm.KindAnon},
	}
	d := (&diffScratch{}).diff(cur, base)
	if len(d.unmap) != 1 || d.unmap[0].Start != 0x30000 || d.unmap[0].End != 0x50000 {
		t.Fatalf("unmap runs = %+v, want one merged [0x30000,0x50000)", d.unmap)
	}
	if len(d.remap) != 0 || len(d.reprotect) != 0 {
		t.Fatalf("unexpected remap/reprotect: %+v", d)
	}
}

func TestRunsOf(t *testing.T) {
	runs := appendRuns(nil, []uint64{1, 2, 3, 7, 9, 10})
	want := []vpnRun{{1, 3}, {7, 1}, {9, 2}}
	if len(runs) != len(want) {
		t.Fatalf("runs = %+v", runs)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("runs = %+v, want %+v", runs, want)
		}
	}
	if appendRuns(nil, nil) != nil {
		t.Fatal("appendRuns(nil, nil) not nil")
	}
}
