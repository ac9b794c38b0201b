package runtimes

import (
	"testing"
	"time"

	"groundhog/internal/kernel"
	"groundhog/internal/sim"
)

func smallProfile() Profile {
	return Profile{
		Name:       "test-fn",
		Lang:       LangPython,
		Exec:       5 * time.Millisecond,
		TotalPages: 2000,
		DirtyPages: 60,
		DropPages:  10,
	}
}

func warmInstance(t *testing.T, prof Profile) (*kernel.Kernel, *Instance) {
	t.Helper()
	k := kernel.New(kernel.Default())
	in, err := NewInstance(k, prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.WarmUp(nil)
	return k, in
}

func TestLanguageProperties(t *testing.T) {
	if LangNode.Threads() <= LangPython.Threads() {
		t.Fatal("Node must run more threads than Python (§3.2)")
	}
	if LangC.Threads() != 1 {
		t.Fatal("C runtime must be single-threaded")
	}
	if LangPython.WasmFactor() <= 1 {
		t.Fatal("wasm Python must be slower than native (§5.3.3)")
	}
	if LangC.WasmFactor() >= 1 {
		t.Fatal("wasm PolyBench must be faster than native (§5.3.3)")
	}
	if LangNode.WasmFactor() != 0 {
		t.Fatal("Node has no wasm support in the comparison")
	}
	if LangNode.LayoutChurnOps() <= LangC.LayoutChurnOps() {
		t.Fatal("Node must churn layout more aggressively than C (§5.3.1)")
	}
	for _, l := range []Language{LangC, LangPython, LangNode} {
		if l.Suffix() == "" || l.String() == "" || l.InitDuration() <= 0 || l.TextPages() <= 0 {
			t.Fatalf("language %v incompletely defined", l)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	good := smallProfile()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Exec = 0
	if bad.Validate() == nil {
		t.Fatal("zero exec accepted")
	}
	bad = good
	bad.DirtyPages = good.TotalPages + 1
	if bad.Validate() == nil {
		t.Fatal("dirty > total accepted")
	}
	bad = good
	bad.Name = ""
	if bad.Validate() == nil {
		t.Fatal("empty name accepted")
	}
}

func TestReadPagesBounds(t *testing.T) {
	p := smallProfile()
	if r := p.ReadPages(); r <= 0 || r > p.TotalPages {
		t.Fatalf("ReadPages = %d out of bounds", r)
	}
	p.ReadPagesOverride = 5
	if p.ReadPages() != 5 {
		t.Fatal("override ignored")
	}
	p.ReadPagesOverride = p.TotalPages * 2
	if p.ReadPages() != p.TotalPages {
		t.Fatal("override not clamped")
	}
}

func TestWarmUpMakesImageResident(t *testing.T) {
	prof := smallProfile()
	_, in := warmInstance(t, prof)
	// Everything mapped is resident after warm-up (plus churn scratch from
	// the dummy request).
	if got := in.ResidentPages(); got < prof.TotalPages {
		t.Fatalf("resident = %d, want >= %d", got, prof.TotalPages)
	}
	if got := in.Proc.AS.MappedPages(); got < prof.TotalPages {
		t.Fatalf("mapped = %d, want >= %d", got, prof.TotalPages)
	}
}

func TestWarmUpIsIdempotent(t *testing.T) {
	_, in := warmInstance(t, smallProfile())
	r1 := in.ResidentPages()
	in.WarmUp(nil)
	if in.ResidentPages() != r1 {
		t.Fatal("second WarmUp changed state")
	}
}

func TestInstanceLayoutBudget(t *testing.T) {
	for _, total := range []int{980, 3190, 6120, 156760} {
		prof := smallProfile()
		prof.TotalPages = total
		prof.DirtyPages = 50
		prof.DropPages = 0
		k := kernel.New(kernel.Default())
		in, err := NewInstance(k, prof, 1)
		if err != nil {
			t.Fatalf("total=%d: %v", total, err)
		}
		if got := in.Proc.AS.MappedPages(); got != total {
			t.Fatalf("total=%d: mapped %d pages", total, got)
		}
	}
}

func TestInvokeChargesExecAndFaults(t *testing.T) {
	prof := smallProfile()
	_, in := warmInstance(t, prof)
	m := sim.NewMeter()
	in.Invoke(Request{ID: 1}, m)
	if m.Total() < prof.Exec*9/10 {
		t.Fatalf("invoke charged %v, expected at least ~Exec (%v)", m.Total(), prof.Exec)
	}
}

func TestInvokeDirtiesProfiledPages(t *testing.T) {
	prof := smallProfile()
	prof.DropPages = 0
	_, in := warmInstance(t, prof)
	in.Proc.AS.ClearSoftDirty()
	in.Proc.AS.ResetFaults()
	in.Invoke(Request{ID: 2}, nil)
	dirty := len(in.Proc.AS.AppendSoftDirtyVPNs(nil))
	// Dirty set: profiled writes + churn scratch + stack scribbles.
	if dirty < prof.DirtyPages {
		t.Fatalf("dirty = %d, want >= %d", dirty, prof.DirtyPages)
	}
	if dirty > prof.DirtyPages+prof.Lang.LayoutChurnOps()*2+2*stackSlack+8 {
		t.Fatalf("dirty = %d, far above profile %d", dirty, prof.DirtyPages)
	}
}

func TestDropWindowRecycledEachRequest(t *testing.T) {
	prof := smallProfile()
	prof.DropPages = 100
	_, in := warmInstance(t, prof)
	as := in.Proc.AS

	// The window ends each request resident and dirty: restoration must
	// copy DirtyPages + DropPages back (Table 3's heat-3d/primes pattern).
	as.ClearSoftDirty()
	as.ResetFaults()
	in.Invoke(Request{ID: 3}, nil)
	dirty := len(as.AppendSoftDirtyVPNs(nil))
	if dirty < prof.DirtyPages+prof.DropPages {
		t.Fatalf("dirty = %d, want >= %d", dirty, prof.DirtyPages+prof.DropPages)
	}
	// Window writes are minor faults on freshly mapped pages, not
	// soft-dirty arming faults.
	f := as.Faults()
	if f.Minor < uint64(prof.DropPages) {
		t.Fatalf("minor faults = %d, want >= %d (window refill)", f.Minor, prof.DropPages)
	}
	if f.SoftDirty > uint64(prof.DirtyPages+2*stackSlack+8) {
		t.Fatalf("SD faults = %d; window writes must not arm-fault", f.SoftDirty)
	}
}

func TestChurnIsSteadyState(t *testing.T) {
	prof := smallProfile()
	prof.Lang = LangNode
	prof.DropPages = 0
	_, in := warmInstance(t, prof)
	in.Invoke(Request{ID: 1}, nil)
	mappedAfter1 := in.Proc.AS.MappedPages()
	for i := 2; i <= 10; i++ {
		in.Invoke(Request{ID: uint64(i)}, nil)
	}
	if got := in.Proc.AS.MappedPages(); got != mappedAfter1 {
		t.Fatalf("layout churn not steady-state: %d -> %d pages", mappedAfter1, got)
	}
}

func TestLeakGrowsWithoutRestore(t *testing.T) {
	prof := smallProfile()
	prof.LeakPages = 20
	prof.LeakSlowdown = 0.5
	_, in := warmInstance(t, prof)
	mapped0 := in.Proc.AS.MappedPages()

	m1 := sim.NewMeter()
	in.Invoke(Request{ID: 1}, m1)
	m5 := sim.NewMeter()
	for i := 2; i <= 5; i++ {
		m5.Reset()
		in.Invoke(Request{ID: uint64(i)}, m5)
	}
	if m5.Total() <= m1.Total() {
		t.Fatalf("leak slowdown missing: first %v, fifth %v", m1.Total(), m5.Total())
	}
	if in.Proc.AS.MappedPages() <= mapped0 {
		t.Fatal("leak did not grow the address space")
	}
	// After a (notional) rollback the slowdown resets.
	in.NotifyRestored()
	m := sim.NewMeter()
	in.Invoke(Request{ID: 6}, m)
	if m.Total() >= m5.Total() {
		t.Fatalf("restore did not reset leak slowdown: %v >= %v", m.Total(), m5.Total())
	}
}

func TestGHPenaltyAppliesOnceAfterRestore(t *testing.T) {
	prof := smallProfile()
	prof.GHPenalty = 50 * time.Millisecond
	_, in := warmInstance(t, prof)

	base := sim.NewMeter()
	in.Invoke(Request{ID: 1}, base)

	in.NotifyRestored()
	first := sim.NewMeter()
	in.Invoke(Request{ID: 2}, first)
	second := sim.NewMeter()
	in.Invoke(Request{ID: 3}, second)

	if first.Total() < base.Total()+prof.GHPenalty*9/10 {
		t.Fatalf("post-restore penalty missing: base %v, first %v", base.Total(), first.Total())
	}
	if second.Total() >= first.Total() {
		t.Fatalf("penalty applied twice: first %v, second %v", first.Total(), second.Total())
	}
}

func TestWasmFactorScalesExec(t *testing.T) {
	prof := smallProfile() // python
	_, in := warmInstance(t, prof)
	in.Wasm = true
	m := sim.NewMeter()
	in.Invoke(Request{ID: 1}, m)
	want := sim.Duration(float64(prof.Exec) * prof.Lang.WasmFactor())
	if m.Total() < want*9/10 {
		t.Fatalf("wasm exec %v, want >= ~%v", m.Total(), want)
	}
}

func TestInvokeOnEphemeralChildKeepsParentChurn(t *testing.T) {
	prof := smallProfile()
	prof.Lang = LangPython
	k, in := warmInstance(t, prof)
	parentMapped := in.Proc.AS.MappedPages()
	for i := 0; i < 3; i++ {
		child, err := k.Fork(in.Proc, nil)
		if err != nil {
			t.Fatal(err)
		}
		in.InvokeOn(child, Request{ID: uint64(i + 1)}, nil)
		k.Exit(child)
	}
	if in.Proc.AS.MappedPages() != parentMapped {
		t.Fatal("ephemeral children perturbed the parent's layout")
	}
}

func TestRegistersTaintedByRequest(t *testing.T) {
	_, in := warmInstance(t, smallProfile())
	in.Invoke(Request{ID: 0xABCD, Secret: 0x77}, nil)
	for _, th := range in.Proc.Threads {
		if th.Regs.GP[0] != 0xABCD || th.Regs.GP[1] != 0x77 {
			t.Fatal("registers not tainted by request")
		}
	}
}
