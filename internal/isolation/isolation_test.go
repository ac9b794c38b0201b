package isolation

import (
	"testing"

	"groundhog/internal/core"
	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

// warmProcess spawns a process with an initialized, seeded heap.
func warmProcess(t *testing.T, threads int) (*kernel.Kernel, *kernel.Process) {
	t.Helper()
	k := kernel.New(kernel.Default())
	p, err := k.Spawn(kernel.ExecSpec{TextPages: 4, DataPages: 2, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	heap := p.AS.HeapBase()
	if _, err := p.AS.Brk(heap + 16*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), 0xC0DE+uint64(i))
	}
	return k, p
}

// runRequest simulates one request that plants a secret, then checks whether
// a second request can see it.
func secretLeaks(t *testing.T, s Strategy) bool {
	t.Helper()
	heap := func(p *kernel.Process) vm.Addr { return p.AS.HeapBase() + 3*mem.PageSize + 256 }

	p1, err := s.BeginRequest(nil)
	if err != nil {
		t.Fatal(err)
	}
	p1.AS.WriteWord(heap(p1), 0x5EC4E7)
	if _, err := s.EndRequest(); err != nil {
		t.Fatal(err)
	}

	p2, err := s.BeginRequest(nil)
	if err != nil {
		t.Fatal(err)
	}
	leaked := p2.AS.ReadWord(heap(p2)) == 0x5EC4E7
	if _, err := s.EndRequest(); err != nil {
		t.Fatal(err)
	}
	return leaked
}

func initStrategy(t *testing.T, mode Mode, threads int) Strategy {
	t.Helper()
	k, p := warmProcess(t, threads)
	s, err := New(mode, k, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Init(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBaseLeaksAcrossRequests(t *testing.T) {
	s := initStrategy(t, ModeBase, 2)
	if !secretLeaks(t, s) {
		t.Fatal("BASE unexpectedly isolated requests")
	}
}

func TestGHIsolatesRequests(t *testing.T) {
	s := initStrategy(t, ModeGH, 3)
	if secretLeaks(t, s) {
		t.Fatal("GH leaked a secret across requests")
	}
}

func TestGHNopDoesNotRestore(t *testing.T) {
	s := initStrategy(t, ModeGHNop, 2)
	if !secretLeaks(t, s) {
		t.Fatal("GH-NOP restored state; it must skip rollback")
	}
	res, err := s.EndRequest()
	if err != nil {
		t.Fatal(err)
	}
	if res.Restored || res.Duration != 0 {
		t.Fatalf("GH-NOP reported cleanup work: %+v", res)
	}
}

// TestClonedContainersIsolateRequests holds the wipe guarantee on both routes
// to a cloned container: a clone of an image exported on the donor's own
// kernel, and a clone of that image's copy on a second kernel (CopyImageTo,
// the cluster's cross-host transfer). GH must not leak on either; GH-NOP must
// leak on both, which shows each route reaches a live clone (BASE has no
// snapshot to clone). Each kernel's frames return to their pre-export count
// once the clones, the copy and the image are released.
func TestClonedContainersIsolateRequests(t *testing.T) {
	for _, tc := range []struct {
		mode  Mode
		leaks bool
	}{{ModeGH, false}, {ModeGHNop, true}} {
		local, p := warmProcess(t, 2)
		donor, err := New(tc.mode, local, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := donor.Init(); err != nil {
			t.Fatal(err)
		}
		remote := kernel.New(kernel.Default())
		base := local.Phys.InUse()
		img, err := donor.Manager().ExportImage(nil)
		if err != nil {
			t.Fatal(err)
		}
		copied, err := core.CopyImageTo(remote, img, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, route := range []struct {
			name string
			kern *kernel.Kernel
			img  *core.SnapshotImage
		}{{"same kernel", local, img}, {"second kernel", remote, copied}} {
			s, proc, err := NewCloned(tc.mode, route.kern, route.img, nil)
			if err != nil {
				t.Fatalf("%s via %s: %v", tc.mode, route.name, err)
			}
			if got := secretLeaks(t, s); got != tc.leaks {
				t.Fatalf("%s via %s: secret leaked = %v, want %v", tc.mode, route.name, got, tc.leaks)
			}
			s.Release()
			route.kern.Exit(proc)
		}
		copied.Release()
		img.Release()
		if got := local.Phys.InUse(); got != base {
			t.Fatalf("%s: donor kernel holds %d frames after release, want %d", tc.mode, got, base)
		}
		if got := remote.Phys.InUse(); got != 0 {
			t.Fatalf("%s: second kernel holds %d frames after release, want 0", tc.mode, got)
		}
	}
}

func TestForkIsolatesRequests(t *testing.T) {
	s := initStrategy(t, ModeFork, 1)
	if secretLeaks(t, s) {
		t.Fatal("FORK leaked a secret across requests")
	}
}

func TestForkParentUntouched(t *testing.T) {
	k, p := warmProcess(t, 1)
	s, err := New(ModeFork, k, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Init(); err != nil {
		t.Fatal(err)
	}
	child, err := s.BeginRequest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if child == p {
		t.Fatal("fork strategy ran request in the parent")
	}
	child.AS.WriteWord(p.AS.HeapBase(), 0xBAD)
	if _, err := s.EndRequest(); err != nil {
		t.Fatal(err)
	}
	if got := p.AS.ReadWord(p.AS.HeapBase()); got != 0xC0DE {
		t.Fatalf("parent heap tainted: %#x", got)
	}
}

func TestForkRejectsMultiThreaded(t *testing.T) {
	k, p := warmProcess(t, 4)
	if _, err := New(ModeFork, k, p); err == nil {
		t.Fatal("fork strategy accepted a multi-threaded runtime")
	}
}

func TestForkChargesCriticalPath(t *testing.T) {
	s := initStrategy(t, ModeFork, 1)
	m := sim.NewMeter()
	if _, err := s.BeginRequest(m); err != nil {
		t.Fatal(err)
	}
	if m.Total() <= 0 {
		t.Fatal("fork added no critical-path cost")
	}
	if _, err := s.EndRequest(); err != nil {
		t.Fatal(err)
	}
}

func TestForkOverlappingRequestsRejected(t *testing.T) {
	s := initStrategy(t, ModeFork, 1)
	if _, err := s.BeginRequest(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginRequest(nil); err == nil {
		t.Fatal("overlapping fork requests allowed")
	}
}

func TestFaasmIsolatesRequests(t *testing.T) {
	s := initStrategy(t, ModeFaasm, 1)
	if secretLeaks(t, s) {
		t.Fatal("FAASM leaked a secret across requests")
	}
}

func TestFaasmResetCheaperThanScanningRestore(t *testing.T) {
	// With a large address space and a tiny write set, FAASM's reset
	// avoids the pagemap scan and should be cheaper than GH's restore.
	mk := func(mode Mode) sim.Duration {
		k, p := warmProcess(t, 1)
		if _, err := p.AS.Mmap(40000*mem.PageSize, vm.ProtRW, vm.KindAnon, "linear-memory"); err != nil {
			t.Fatal(err)
		}
		s, err := New(mode, k, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Init(); err != nil {
			t.Fatal(err)
		}
		proc, err := s.BeginRequest(nil)
		if err != nil {
			t.Fatal(err)
		}
		proc.AS.WriteWord(proc.AS.HeapBase(), 1)
		res, err := s.EndRequest()
		if err != nil {
			t.Fatal(err)
		}
		return res.Duration
	}
	gh, faasm := mk(ModeGH), mk(ModeFaasm)
	if faasm >= gh {
		t.Fatalf("faasm reset %v not cheaper than GH restore %v on huge sparse space", faasm, gh)
	}
}

func TestGHRestoreReportsBreakdown(t *testing.T) {
	s := initStrategy(t, ModeGH, 2)
	p, err := s.BeginRequest(nil)
	if err != nil {
		t.Fatal(err)
	}
	p.AS.WriteWord(p.AS.HeapBase(), 7)
	res, err := s.EndRequest()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Restored || res.Restore.DirtyPages != 1 {
		t.Fatalf("unexpected cleanup result: %+v", res)
	}
	if res.Duration != res.Restore.Total {
		t.Fatalf("duration %v != restore total %v", res.Duration, res.Restore.Total)
	}
}

func TestModesEnumerated(t *testing.T) {
	if len(Modes) != 5 {
		t.Fatalf("Modes = %v", Modes)
	}
	if _, err := New("bogus", kernel.New(kernel.Default()), nil); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestInterposesFlags(t *testing.T) {
	k, p := warmProcess(t, 1)
	for mode, want := range map[Mode]bool{
		ModeBase: false, ModeGH: true, ModeGHNop: true, ModeFork: true, ModeFaasm: false,
	} {
		s, err := New(mode, k, p)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if s.Interposes() != want {
			t.Fatalf("%v Interposes = %v, want %v", mode, s.Interposes(), want)
		}
	}
}
