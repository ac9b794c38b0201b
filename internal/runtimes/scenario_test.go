package runtimes

import (
	"testing"
	"time"

	"groundhog/internal/kernel"
	"groundhog/internal/sim"
)

// TestStateCostsChargedOnlyWhenArmed pins the arming condition of the
// stateful-function scenario (the ARCHITECTURE invariant row "state costs
// charged only when armed"): a stateless profile charges exactly what it
// charged before the knobs existed — same meter total, same RNG stream —
// while an armed profile charges StateGetCost/StatePutCost per drawn
// operation on top.
func TestStateCostsChargedOnlyWhenArmed(t *testing.T) {
	run := func(gets, puts float64) (sim.Duration, int, int) {
		prof := smallProfile()
		prof.StateGets = gets
		prof.StatePuts = puts
		_, in := warmInstance(t, prof)
		// Warm-up runs the dummy request (§4.1), which draws state ops of
		// its own on an armed profile; measure the serving requests only.
		wg, wp := in.StateOps()
		m := sim.NewMeter()
		for i := 0; i < 20; i++ {
			in.Invoke(Request{ID: uint64(i)}, m)
		}
		g, p := in.StateOps()
		return m.Total(), g - wg, p - wp
	}

	stateless, g0, p0 := run(0, 0)
	if g0 != 0 || p0 != 0 {
		t.Fatalf("stateless instance drew %d gets / %d puts", g0, p0)
	}
	again, _, _ := run(0, 0)
	if stateless != again {
		t.Fatalf("stateless runs diverged: %v vs %v", stateless, again)
	}

	cost := kernel.Default()
	armed, g, p := run(3, 2)
	if g == 0 || p == 0 {
		t.Fatal("armed instance drew no state operations")
	}
	want := stateless + sim.Duration(g)*cost.StateGetCost + sim.Duration(p)*cost.StatePutCost
	if armed != want {
		t.Fatalf("armed meter %v, want stateless %v + exact per-op charges %v",
			armed, stateless, want-stateless)
	}
}

// TestStateOpsDrawAroundMeans: integral means draw deterministically (no
// RNG perturbation at all), fractional parts Bernoulli up.
func TestStateOpsDrawAroundMeans(t *testing.T) {
	prof := smallProfile()
	prof.StateGets = 2 // integral: exactly 2 per request, no draw
	prof.StatePuts = 0.5
	_, in := warmInstance(t, prof)
	wg, wp := in.StateOps() // exclude the warm-up dummy request's draws
	const n = 200
	for i := 0; i < n; i++ {
		in.Invoke(Request{ID: uint64(i)}, nil)
	}
	gets, puts := in.StateOps()
	gets, puts = gets-wg, puts-wp
	if gets != 2*n {
		t.Fatalf("integral mean drew %d gets over %d requests, want exactly %d", gets, n, 2*n)
	}
	if puts < n/4 || puts > 3*n/4 {
		t.Fatalf("fractional mean 0.5 drew %d puts over %d requests", puts, n)
	}
}

// TestRuntimeProfileZeroIsIdentity pins the ARCHITECTURE invariant row
// "profiles byte-identical to defaults when unset": the zero overlay maps a
// profile to itself, and the named binary overlay — all factors zero — is
// equally inert.
func TestRuntimeProfileZeroIsIdentity(t *testing.T) {
	prof := smallProfile()
	if got := (RuntimeProfile{}).Apply(prof); got != prof {
		t.Fatalf("zero overlay changed the profile: %+v -> %+v", prof, got)
	}
	if got := RuntimeBinary.Apply(prof); got != prof {
		t.Fatalf("binary overlay changed the profile: %+v -> %+v", prof, got)
	}
}

// TestRuntimeProfileScalesFootprint: the interpreted overlays grow memory,
// dirty rate, and warm-up monotonically (node above python above binary),
// and the scaled profile still validates.
func TestRuntimeProfileScalesFootprint(t *testing.T) {
	prof := smallProfile()
	py := RuntimePython.Apply(prof)
	node := RuntimeNode.Apply(prof)
	if !(node.TotalPages > py.TotalPages && py.TotalPages > prof.TotalPages) {
		t.Fatalf("footprints not monotone: %d / %d / %d",
			prof.TotalPages, py.TotalPages, node.TotalPages)
	}
	if !(node.DirtyPages > py.DirtyPages && py.DirtyPages > prof.DirtyPages) {
		t.Fatalf("dirty rates not monotone: %d / %d / %d",
			prof.DirtyPages, py.DirtyPages, node.DirtyPages)
	}
	if !(node.WarmupExtra > py.WarmupExtra && py.WarmupExtra > 0) {
		t.Fatalf("warm-ups not monotone: %v / %v", py.WarmupExtra, node.WarmupExtra)
	}
	for _, p := range []Profile{py, node} {
		if err := p.Validate(); err != nil {
			t.Fatalf("scaled profile invalid: %v", err)
		}
	}
}

// TestRuntimeProfileClampsLayout: aggressive factors on a tiny profile are
// clamped so the layout invariants (minimum footprint, dirty+drop within
// the footprint) hold.
func TestRuntimeProfileClampsLayout(t *testing.T) {
	tiny := Profile{
		Name: "tiny", Lang: LangC, Exec: time.Millisecond,
		TotalPages: 64, DirtyPages: 30, DropPages: 20,
	}
	shrunk := RuntimeProfile{Name: "shrink", MemoryFactor: 0.1}.Apply(tiny)
	if err := shrunk.Validate(); err != nil {
		t.Fatalf("shrunken profile invalid: %v", err)
	}
	dirty := RuntimeProfile{Name: "dirty", DirtyFactor: 100}.Apply(tiny)
	if err := dirty.Validate(); err != nil {
		t.Fatalf("dirty-heavy profile invalid: %v", err)
	}
	if dirty.DirtyPages+dirty.DropPages > dirty.TotalPages {
		t.Fatalf("dirty clamp failed: %d+%d > %d",
			dirty.DirtyPages, dirty.DropPages, dirty.TotalPages)
	}
}

// TestWarmupExtraLengthensWarmUp: the overlay's extra initialization is
// charged during WarmUp, before any snapshot.
func TestWarmupExtraLengthensWarmUp(t *testing.T) {
	base := smallProfile()
	extra := base
	extra.WarmupExtra = 100 * time.Millisecond

	warmCost := func(prof Profile) sim.Duration {
		k := kernel.New(kernel.Default())
		in, err := NewInstance(k, prof, 1)
		if err != nil {
			t.Fatal(err)
		}
		m := sim.NewMeter()
		in.WarmUp(m)
		return m.Total()
	}
	if d := warmCost(extra) - warmCost(base); d != 100*time.Millisecond {
		t.Fatalf("warm-up extra charged %v, want exactly 100ms", d)
	}
}
