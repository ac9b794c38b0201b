package faas

import (
	"testing"
	"time"

	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/sim"
)

func TestAddContainerPaysColdStart(t *testing.T) {
	pl := newPlatform(t, isolation.ModeGH, 1)
	// Advance time a bit, then scale up: the new container is not ready
	// until its cold start completes.
	pl.Engine.RunUntil(sim.Time(100 * time.Millisecond))
	c, err := pl.AddContainer()
	if err != nil {
		t.Fatal(err)
	}
	if c.Ready() <= pl.Engine.Now() {
		t.Fatal("scaled-up container ready instantly; cold start not charged")
	}
	if got := c.Ready().Sub(pl.Engine.Now()); got < 300*time.Millisecond {
		t.Fatalf("cold start only %v; expected hundreds of ms (Fig. 1)", got)
	}
	if len(pl.Containers()) != 2 {
		t.Fatalf("containers = %d", len(pl.Containers()))
	}
}

func TestRemoveContainerFreesMemory(t *testing.T) {
	pl := newPlatform(t, isolation.ModeBase, 2)
	before := pl.Kern.Phys.InUse()
	c := pl.Containers()[1]
	pl.RemoveContainer(c)
	if len(pl.Containers()) != 1 {
		t.Fatalf("containers = %d after removal", len(pl.Containers()))
	}
	if pl.Kern.Phys.InUse() >= before {
		t.Fatalf("removal freed no frames: %d -> %d", before, pl.Kern.Phys.InUse())
	}
	// Removing an unknown container is a no-op.
	pl.RemoveContainer(c)
	if len(pl.Containers()) != 1 {
		t.Fatal("double removal corrupted the pool")
	}
}

func TestInvokeOnceAdvancesVirtualTime(t *testing.T) {
	pl := newPlatform(t, isolation.ModeGH, 1)
	st1, err := pl.InvokeOnce("alice")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Engine.Now() != st1.Completed {
		t.Fatalf("clock %v, want completion %v", pl.Engine.Now(), st1.Completed)
	}
	// The second invocation waits out the restore gate.
	st2, err := pl.InvokeOnce("bob")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Completed <= st1.ReadyAgain {
		t.Fatalf("second request overlapped the restore: %v <= %v", st2.Completed, st1.ReadyAgain)
	}
}

func TestServeTracksLastDone(t *testing.T) {
	pl := newPlatform(t, isolation.ModeBase, 1)
	c := pl.Containers()[0]
	if c.LastDone() != 0 {
		t.Fatal("fresh container has a LastDone")
	}
	if _, err := pl.Serve(c, ""); err != nil {
		t.Fatal(err)
	}
	if c.LastDone() == 0 || c.Requests() != 1 {
		t.Fatalf("bookkeeping wrong: lastDone=%v requests=%d", c.LastDone(), c.Requests())
	}
}

func TestSharedEngineAcrossPlatforms(t *testing.T) {
	eng := sim.NewEngine()
	kern := kernel.New(kernel.Default())
	a, err := NewPlatformOn(eng, kern, testProfile(), isolation.ModeBase, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof2 := testProfile()
	prof2.Name = "fn2"
	b, err := NewPlatformOn(eng, kern, prof2, isolation.ModeGH, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine != b.Engine || a.Kern != b.Kern {
		t.Fatal("platforms not sharing engine/kernel")
	}
	if _, err := a.InvokeOnce(""); err != nil {
		t.Fatal(err)
	}
	if _, err := b.InvokeOnce(""); err != nil {
		t.Fatal(err)
	}
	// Both functions' processes live in the same kernel.
	if liveProcesses(kern) != 2 {
		t.Fatalf("processes = %d, want 2", liveProcesses(kern))
	}
}

func TestNewPlatformOnAllowsZeroContainers(t *testing.T) {
	pl, err := NewPlatformOn(sim.NewEngine(), kernel.New(kernel.Default()), testProfile(), isolation.ModeBase, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Containers()) != 0 {
		t.Fatal("expected empty pool")
	}
	if _, err := pl.InvokeOnce(""); err == nil {
		t.Fatal("invoke with no containers succeeded")
	}
	if _, err := NewPlatformOn(sim.NewEngine(), kernel.New(kernel.Default()), testProfile(), isolation.ModeBase, -1, 1); err == nil {
		t.Fatal("negative container count accepted")
	}
}

// TestRespondThenSettle: Respond answers before the rollback, so its stats
// carry no cleanup; Settle runs the pending restore and returns that half,
// and with nothing pending returns nothing. InvokeOnce is the two back to
// back: on twin platforms it returns exactly the merged halves.
func TestRespondThenSettle(t *testing.T) {
	pl := newPlatform(t, isolation.ModeGH, 1)
	twin := newPlatform(t, isolation.ModeGH, 1)
	for i := 0; i < 3; i++ {
		st, err := pl.Respond("")
		if err != nil {
			t.Fatal(err)
		}
		if st.Restored || st.Cleanup != 0 || st.ReadyAgain != 0 {
			t.Fatalf("request %d: Respond carries cleanup stats: %+v", i, st)
		}
		if pl.Restores() != i {
			t.Fatalf("request %d: %d restores with the cleanup still pending, want %d", i, pl.Restores(), i)
		}
		cl, err := pl.Settle()
		if err != nil {
			t.Fatal(err)
		}
		if !cl.Restored || cl.Cleanup <= 0 || cl.ReadyAgain != st.Completed.Add(cl.Cleanup) || pl.Restores() != i+1 {
			t.Fatalf("request %d: Settle did not restore: %+v, %d restores", i, cl, pl.Restores())
		}
		if again, err := pl.Settle(); err != nil || again != (RequestStats{}) {
			t.Fatalf("request %d: a second Settle = %+v, %v; want nothing", i, again, err)
		}
		st.Cleanup, st.Restore, st.Restored, st.ReadyAgain = cl.Cleanup, cl.Restore, cl.Restored, cl.ReadyAgain
		once, err := twin.InvokeOnce("")
		if err != nil {
			t.Fatal(err)
		}
		if once != st {
			t.Fatalf("request %d: InvokeOnce = %+v, Respond + Settle = %+v", i, once, st)
		}
	}
}

// TestRolledBackSincePreviousRequest: a response reports whether its
// container was rolled back since the previous request — never for a
// container's first request, under BASE or GH-NOP, or for a trusted
// same-caller follow-up; always after a GH rollback, deferred or not. Once
// the last cleanup is settled, Restores counts exactly those rollbacks plus
// the last request's own: one per GH request, one per caller switch under
// TrustSameCaller, none under BASE or GH-NOP.
func TestRolledBackSincePreviousRequest(t *testing.T) {
	for _, tc := range []struct {
		mode     isolation.Mode
		trust    bool
		callers  []string
		want     []bool
		restores int
	}{
		{isolation.ModeGH, false, []string{"a", "a", "a"}, []bool{false, true, true}, 3},
		{isolation.ModeGHNop, false, []string{"a", "a"}, []bool{false, false}, 0},
		{isolation.ModeBase, false, []string{"a", "a"}, []bool{false, false}, 0},
		{isolation.ModeGH, true, []string{"alice", "alice", "bob", "bob"}, []bool{false, false, true, false}, 1},
		{isolation.ModeGH, true, []string{"alice", "bob", "alice", "alice", "bob"}, []bool{false, true, true, false, true}, 3},
	} {
		pl := newPlatform(t, tc.mode, 1)
		pl.TrustSameCaller = tc.trust
		for i, caller := range tc.callers {
			st, err := pl.Respond(caller)
			if err != nil {
				t.Fatal(err)
			}
			if st.RolledBack != tc.want[i] {
				t.Errorf("%s (trust %v) request %d from %s: RolledBack %v, want %v", tc.mode, tc.trust, i, caller, st.RolledBack, tc.want[i])
			}
		}
		if _, err := pl.Settle(); err != nil {
			t.Fatal(err)
		}
		if got := pl.Restores(); got != tc.restores {
			t.Errorf("%s (trust %v) after %v: %d restores, want %d", tc.mode, tc.trust, tc.callers, got, tc.restores)
		}
	}
}

// TestRemoveContainerDropsPendingCleanup: a container removed, or torn down,
// with its cleanup pending takes the cleanup with it. Settle then does
// nothing, rather than restore a released manager, and every frame and lent
// page comes back.
func TestRemoveContainerDropsPendingCleanup(t *testing.T) {
	for _, remove := range []func(*Platform){
		func(pl *Platform) { pl.RemoveContainer(pl.Containers()[0]) },
		(*Platform).Teardown,
	} {
		pl := newPlatform(t, isolation.ModeGH, 1)
		if _, err := pl.Respond(""); err != nil {
			t.Fatal(err)
		}
		remove(pl)
		if cl, err := pl.Settle(); err != nil || cl.Restored {
			t.Fatalf("Settle after removing the container = %+v, %v; want nothing", cl, err)
		}
		pl.Teardown()
		if phys := pl.Kern.Phys; phys.InUse() != 0 || phys.Lent() != 0 {
			t.Fatalf("%d frames in use, %d pages lent after teardown", phys.InUse(), phys.Lent())
		}
	}
}
