package ptrace

import (
	"testing"

	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

func newTracee(t *testing.T, threads int) (*kernel.Kernel, *kernel.Process) {
	t.Helper()
	k := kernel.New(kernel.Default())
	p, err := k.Spawn(kernel.ExecSpec{TextPages: 4, Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AS.Brk(p.AS.HeapBase() + 8*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	return k, p
}

func TestSeizeInterruptResumeDetach(t *testing.T) {
	k, p := newTracee(t, 3)
	tr, err := Seize(k, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.InterruptAll(); err != nil {
		t.Fatal(err)
	}
	for _, th := range p.Threads {
		if th.State != kernel.ThreadStopped {
			t.Fatalf("thread %d not stopped", th.TID)
		}
	}
	if err := tr.Resume(); err != nil {
		t.Fatal(err)
	}
	for _, th := range p.Threads {
		if th.State != kernel.ThreadRunning {
			t.Fatalf("thread %d not running", th.TID)
		}
	}
	if err := tr.InterruptAll(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Detach(); err != nil {
		t.Fatal(err)
	}
	// Detach resumes stopped threads.
	for _, th := range p.Threads {
		if th.State != kernel.ThreadRunning {
			t.Fatalf("thread %d stopped after detach", th.TID)
		}
	}
	if err := tr.InterruptAll(); err == nil {
		t.Fatal("tracer usable after detach")
	}
}

func TestOperationsRequireStop(t *testing.T) {
	k, p := newTracee(t, 1)
	tr, _ := Seize(k, p, nil)
	if _, err := tr.GetRegs(p.MainThread().TID); err == nil {
		t.Fatal("GetRegs succeeded on running tracee")
	}
	if err := tr.InjectBrk(p.AS.HeapBase()); err == nil {
		t.Fatal("inject succeeded on running tracee")
	}
	if _, err := tr.PeekPage(0); err == nil {
		t.Fatal("PeekPage succeeded on running tracee")
	}
}

func TestRegsRoundTrip(t *testing.T) {
	k, p := newTracee(t, 2)
	tr, _ := Seize(k, p, nil)
	if err := tr.InterruptAll(); err != nil {
		t.Fatal(err)
	}
	tid := p.Threads[1].TID
	regs, err := tr.GetRegs(tid)
	if err != nil {
		t.Fatal(err)
	}
	regs.GP[0] = 0xfeed
	if err := tr.SetRegs(tid, regs); err != nil {
		t.Fatal(err)
	}
	got, _ := tr.GetRegs(tid)
	if got.GP[0] != 0xfeed {
		t.Fatalf("regs not written: %+v", got)
	}
	if _, err := tr.GetRegs(-5); err == nil {
		t.Fatal("GetRegs of bogus TID succeeded")
	}
}

func TestPeekPokePages(t *testing.T) {
	k, p := newTracee(t, 1)
	heap := p.AS.HeapBase()
	p.AS.WriteWord(heap, 1234)
	tr, _ := Seize(k, p, nil)
	if err := tr.InterruptAll(); err != nil {
		t.Fatal(err)
	}
	vpn := heap.PageNum()
	data, err := tr.PeekPage(vpn)
	if err != nil {
		t.Fatal(err)
	}
	if data == nil {
		t.Fatal("PeekPage of written page returned nil")
	}
	if err := tr.PokePage(vpn, nil); err != nil { // nil data zeroes the page
		t.Fatal(err)
	}
	if err := tr.PokePage(vpn, data); err != nil {
		t.Fatal(err)
	}
	if err := tr.Detach(); err != nil {
		t.Fatal(err)
	}
	if got := p.AS.ReadWord(heap); got != 1234 {
		t.Fatalf("restored word = %d, want 1234", got)
	}
}

func TestInjectedSyscallsChargeTracerNotTracee(t *testing.T) {
	k, p := newTracee(t, 1)
	traceeMeter := sim.NewMeter()
	p.AS.SetMeter(traceeMeter)

	tracerMeter := sim.NewMeter()
	tr, _ := Seize(k, p, tracerMeter)
	if err := tr.InterruptAll(); err != nil {
		t.Fatal(err)
	}
	if err := tr.InjectBrk(p.AS.HeapBase() + 16*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := tr.InjectMadvise(p.AS.HeapBase(), 4*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if traceeMeter.Total() != 0 {
		t.Fatalf("injected syscalls charged the tracee: %v", traceeMeter.Total())
	}
	if tracerMeter.Total() == 0 {
		t.Fatal("injected syscalls charged nothing to the tracer")
	}
	// The tracee's meter must be back in place afterwards.
	if p.AS.Meter() != traceeMeter {
		t.Fatal("tracee meter not restored after injection")
	}
}

func TestInjectLayoutOperations(t *testing.T) {
	k, p := newTracee(t, 1)
	tr, _ := Seize(k, p, nil)
	if err := tr.InterruptAll(); err != nil {
		t.Fatal(err)
	}
	// The function mapped a scratch region; the restorer unmaps it and
	// re-creates an original one.
	scratch, err := p.AS.Mmap(4*mem.PageSize, vm.ProtRW, vm.KindAnon, "scratch")
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.InjectMunmap(scratch, 4*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.AS.FindVMA(scratch); ok {
		t.Fatal("munmap injection did not remove region")
	}
	if err := tr.InjectMmapFixed(scratch, 4*mem.PageSize, vm.ProtRead, vm.KindAnon, "orig"); err != nil {
		t.Fatal(err)
	}
	v, ok := p.AS.FindVMA(scratch)
	if !ok || v.Prot != vm.ProtRead || v.Name != "orig" {
		t.Fatalf("mmap injection wrong: %+v ok=%v", v, ok)
	}
	if err := tr.InjectMprotect(scratch, 4*mem.PageSize, vm.ProtRW); err != nil {
		t.Fatal(err)
	}
	v, _ = p.AS.FindVMA(scratch)
	if v.Prot != vm.ProtRW {
		t.Fatalf("mprotect injection wrong: %+v", v)
	}
	if err := p.AS.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSeizeDeadProcessFails(t *testing.T) {
	k, p := newTracee(t, 1)
	k.Exit(p)
	if _, err := Seize(k, p, nil); err == nil {
		t.Fatal("seized a dead process")
	}
}

func TestPerThreadCosts(t *testing.T) {
	k, p := newTracee(t, 4)
	m := sim.NewMeter()
	tr, err := Seize(k, p, m)
	if err != nil {
		t.Fatal(err)
	}
	attach := k.Cost.PtraceAttachPerThread * 4
	if m.Total() != attach {
		t.Fatalf("attach cost = %v, want %v", m.Total(), attach)
	}
	if err := tr.InterruptAll(); err != nil {
		t.Fatal(err)
	}
	wantAfterInterrupt := attach + k.Cost.PtraceInterruptPerThread*4
	if m.Total() != wantAfterInterrupt {
		t.Fatalf("interrupt cost = %v, want %v", m.Total(), wantAfterInterrupt)
	}
}
