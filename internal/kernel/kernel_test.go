package kernel

import (
	"reflect"
	"testing"

	"groundhog/internal/mem"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

func testSpec() ExecSpec {
	return ExecSpec{TextPages: 8, DataPages: 4, StackBytes: 1 << 20, Threads: 2}
}

func TestSpawnLaysOutSegments(t *testing.T) {
	k := New(Default())
	p, err := k.Spawn(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Threads) != 2 {
		t.Fatalf("threads = %d, want 2", len(p.Threads))
	}
	kinds := map[vm.Kind]bool{}
	for _, v := range p.AS.VMAs() {
		kinds[v.Kind] = true
	}
	for _, want := range []vm.Kind{vm.KindText, vm.KindData, vm.KindStack} {
		if !kinds[want] {
			t.Fatalf("missing %v segment; layout: %v", want, p.AS.VMAs())
		}
	}
	if err := p.AS.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if p.MainThread().Regs.SP == 0 {
		t.Fatal("main thread SP not initialized")
	}
}

func TestSpawnDefaults(t *testing.T) {
	k := New(Default())
	p, err := k.Spawn(ExecSpec{TextPages: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Threads) != 1 {
		t.Fatalf("default threads = %d, want 1", len(p.Threads))
	}
}

func TestDistinctPIDsAndTIDs(t *testing.T) {
	k := New(Default())
	a, _ := k.Spawn(testSpec())
	b, _ := k.Spawn(testSpec())
	if a.PID == b.PID {
		t.Fatal("duplicate PIDs")
	}
	seen := map[int]bool{}
	for _, p := range []*Process{a, b} {
		for _, th := range p.Threads {
			if seen[th.TID] {
				t.Fatalf("duplicate TID %d", th.TID)
			}
			seen[th.TID] = true
		}
	}
}

func TestForkSingleThreadOnly(t *testing.T) {
	k := New(Default())
	multi, _ := k.Spawn(testSpec())
	if _, err := k.Fork(multi, nil); err == nil {
		t.Fatal("fork of multi-threaded process succeeded")
	}
	single, _ := k.Spawn(ExecSpec{TextPages: 2, Threads: 1})
	child, err := k.Fork(single, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(child.Threads) != 1 {
		t.Fatalf("child threads = %d, want 1", len(child.Threads))
	}
	if child.MainThread().Regs != single.MainThread().Regs {
		t.Fatal("child registers differ from parent")
	}
}

func TestForkChargesPerResidentPage(t *testing.T) {
	cost := Default()
	k := New(cost)
	p, _ := k.Spawn(ExecSpec{TextPages: 1, Threads: 1})
	if _, err := p.AS.Brk(p.AS.HeapBase() + 10*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.AS.WriteWord(p.AS.HeapBase()+vm.Addr(i*mem.PageSize), 1)
	}
	m := sim.NewMeter()
	if _, err := k.Fork(p, m); err != nil {
		t.Fatal(err)
	}
	want := cost.ForkBase + 10*cost.ForkPerPage
	if m.Total() != want {
		t.Fatalf("fork cost = %v, want %v", m.Total(), want)
	}
}

func TestExitReleasesMemory(t *testing.T) {
	k := New(Default())
	p, _ := k.Spawn(ExecSpec{TextPages: 2, Threads: 1})
	p.AS.WriteWord(vm.StackTop-8, 42)
	if k.Phys.InUse() == 0 {
		t.Fatal("expected resident pages before exit")
	}
	k.Exit(p)
	if p.Alive() {
		t.Fatal("process alive after exit")
	}
	if k.Phys.InUse() != 0 {
		t.Fatalf("exit leaked %d frames", k.Phys.InUse())
	}
	if _, ok := k.procs[p.PID]; ok {
		t.Fatal("exited process still in table")
	}
	k.Exit(p) // double exit is a no-op
}

func TestThreadLookup(t *testing.T) {
	k := New(Default())
	p, _ := k.Spawn(testSpec())
	th := p.Threads[1]
	got, ok := p.Thread(th.TID)
	if !ok || got != th {
		t.Fatal("Thread lookup failed")
	}
	if _, ok := p.Thread(-1); ok {
		t.Fatal("lookup of bogus TID succeeded")
	}
}

func TestDefaultCostModelSanity(t *testing.T) {
	c := Default()
	if c.VM.SoftDirtyFault >= c.VM.CoWFault {
		t.Fatal("SD fault should be cheaper than CoW fault (core premise of §5.2.3)")
	}
	if c.PageCopyTail >= c.PageCopy {
		t.Fatal("coalesced tail copies should be cheaper than run-head copies")
	}
	// Every knob is charged somewhere, so a zero default is a dead knob: one
	// nothing calibrates and nothing sets.
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), prefix+v.Type().Field(i).Name
			switch {
			case f.Kind() == reflect.Struct:
				walk(name+".", f)
			case f.Type() == reflect.TypeOf(sim.Duration(0)) && f.Int() == 0:
				t.Errorf("Default().%s is zero", name)
			}
		}
	}
	walk("", reflect.ValueOf(c))
}
