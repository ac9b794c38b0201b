package cluster

import (
	"errors"
	"testing"

	"groundhog/internal/catalog"
	"groundhog/internal/faas"
	"groundhog/internal/faults"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/sim"
)

// transferRig is a minimal two-to-three-host setup for registry-level
// tests: one shared engine, per-host kernels, one deployment's platform per
// host, and a source platform already holding a clone donor.
type transferRig struct {
	eng   *sim.Engine
	kerns []*kernel.Kernel
	pools []*faas.Platform
	reg   *Registry
}

func newTransferRig(t *testing.T, hosts int) *transferRig {
	t.Helper()
	e, err := catalog.Lookup("get-time (p)")
	if err != nil {
		t.Fatal(err)
	}
	rig := &transferRig{eng: sim.NewEngine(), reg: newRegistry()}
	for i := 0; i < hosts; i++ {
		k := kernel.New(kernel.Default())
		pl, err := faas.NewPlatformOn(rig.eng, k, e.Prof, isolation.ModeGH, 0, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		pl.CloneScaleOut = true
		rig.kerns = append(rig.kerns, k)
		rig.pools = append(rig.pools, pl)
	}
	if _, err := rig.pools[0].AddWarmContainer(); err != nil {
		t.Fatal(err)
	}
	return rig
}

// teardown removes every container and image and asserts every host's
// physical memory drained to zero.
func (rig *transferRig) teardown(t *testing.T) {
	t.Helper()
	for _, pl := range rig.pools {
		for {
			cs := pl.Containers()
			if len(cs) == 0 {
				break
			}
			pl.RemoveContainer(cs[0])
		}
		pl.EvictImage()
	}
	for i, k := range rig.kerns {
		if n := k.Phys.InUse(); n != 0 {
			t.Fatalf("host %d: %d frames still in use after teardown", i, n)
		}
	}
}

func TestPullTransfersImageAndRecordsWindow(t *testing.T) {
	rig := newTransferRig(t, 2)
	delay, err := rig.reg.Pull("fn", 1, rig.pools[0], rig.pools[1], rig.kerns[1], rig.eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	if delay <= 0 {
		t.Fatalf("transfer delay = %v, want > 0 (base + per-frame charges)", delay)
	}
	if !rig.pools[1].HasImage() {
		t.Fatal("destination holds no live image after a successful pull")
	}
	if rig.kerns[1].Phys.InUse() == 0 {
		t.Fatal("destination kernel holds no frames after the copy")
	}
	if done, pending := rig.reg.PendingPull("fn", 1, rig.eng.Now()); !pending || done != rig.eng.Now().Add(delay) {
		t.Fatalf("pending pull = (%v, %v), want (%v, true)", done, pending, rig.eng.Now().Add(delay))
	}
	// The window prunes once virtual time passes it.
	rig.eng.RunUntil(rig.eng.Now().Add(delay))
	if _, pending := rig.reg.PendingPull("fn", 1, rig.eng.Now()); pending {
		t.Fatal("pull still pending after its completion time")
	}
	if st := rig.reg.Stats(); st.Transfers != 1 || st.Registrations != 1 {
		t.Fatalf("stats = %+v, want 1 transfer, 1 registration", st)
	}
	rig.teardown(t)
}

// TestConcurrentPullsToOneHostDedup pins the single-transfer-charge rule:
// while a pull to a host is in flight, a second scale-up on that host joins
// it (PendingPull) instead of paying a second charge.
func TestConcurrentPullsToOneHostDedup(t *testing.T) {
	rig := newTransferRig(t, 2)
	delay, err := rig.reg.Pull("fn", 1, rig.pools[0], rig.pools[1], rig.kerns[1], rig.eng.Now())
	if err != nil {
		t.Fatal(err)
	}
	framesAfterFirst := rig.kerns[1].Phys.InUse()
	// A concurrent scale-up consults PendingPull first; the cluster then
	// clones from the adopted template and charges only the remaining wait.
	done, pending := rig.reg.PendingPull("fn", 1, rig.eng.Now())
	if !pending {
		t.Fatal("second scale-up sees no pending pull to join")
	}
	if remaining := done.Sub(rig.eng.Now()); remaining <= 0 || remaining > delay {
		t.Fatalf("remaining wait %v outside (0, %v]", remaining, delay)
	}
	rig.reg.NoteDedup()
	if st := rig.reg.Stats(); st.Transfers != 1 || st.DedupWaits != 1 {
		t.Fatalf("stats = %+v, want exactly 1 transfer and 1 dedup", st)
	}
	if got := rig.kerns[1].Phys.InUse(); got != framesAfterFirst {
		t.Fatalf("dedup changed destination frames: %d -> %d", framesAfterFirst, got)
	}
	rig.teardown(t)
}

// TestTwoHostsPullConcurrently: pulls to two different hosts are
// independent — each pays its own transfer, both destination copies are
// live, and no frame leaks on teardown.
func TestTwoHostsPullConcurrently(t *testing.T) {
	rig := newTransferRig(t, 3)
	now := rig.eng.Now()
	if _, err := rig.reg.Pull("fn", 1, rig.pools[0], rig.pools[1], rig.kerns[1], now); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.reg.Pull("fn", 2, rig.pools[0], rig.pools[2], rig.kerns[2], now); err != nil {
		t.Fatal(err)
	}
	if st := rig.reg.Stats(); st.Transfers != 2 || st.DedupWaits != 0 {
		t.Fatalf("stats = %+v, want 2 independent transfers", st)
	}
	for host := 1; host <= 2; host++ {
		if !rig.pools[host].HasImage() {
			t.Fatalf("host %d holds no live image", host)
		}
	}
	rig.teardown(t)
}

// TestEvictImageMidTransfer pins the mid-transfer eviction edge case: the
// destination drops its adopted image while the pull window is still open.
// The copy's frames must return to the destination kernel immediately, and
// a later scale-up must be able to pull again.
func TestEvictImageMidTransfer(t *testing.T) {
	rig := newTransferRig(t, 2)
	if _, err := rig.reg.Pull("fn", 1, rig.pools[0], rig.pools[1], rig.kerns[1], rig.eng.Now()); err != nil {
		t.Fatal(err)
	}
	if _, pending := rig.reg.PendingPull("fn", 1, rig.eng.Now()); !pending {
		t.Fatal("pull should still be in flight")
	}
	if !rig.pools[1].EvictImage() {
		t.Fatal("destination had no image to evict mid-transfer")
	}
	if n := rig.kerns[1].Phys.InUse(); n != 0 {
		t.Fatalf("mid-transfer eviction leaked %d frames on the destination", n)
	}
	// The dead pull window is dropped with its host (drain/fail path)…
	rig.reg.DropHost(1)
	if _, pending := rig.reg.PendingPull("fn", 1, rig.eng.Now()); pending {
		t.Fatal("pull still pending after DropHost")
	}
	// …and a fresh pull restores the image.
	if _, err := rig.reg.Pull("fn", 1, rig.pools[0], rig.pools[1], rig.kerns[1], rig.eng.Now()); err != nil {
		t.Fatal(err)
	}
	if !rig.pools[1].HasImage() {
		t.Fatal("re-pull after eviction left no live image")
	}
	rig.teardown(t)
}

// TestTransferFaultUnwindsPartialCopy: an injected image-transfer fault on
// the destination kernel aborts the pull mid-copy; the partial frames are
// unwound and the next attempt succeeds.
func TestTransferFaultUnwindsPartialCopy(t *testing.T) {
	rig := newTransferRig(t, 2)
	rig.kerns[1].Faults = faults.New(faults.Plan{
		Seed:     7,
		Schedule: map[faults.Site][]uint64{faults.SiteImageTransfer: {1}},
	})
	_, err := rig.reg.Pull("fn", 1, rig.pools[0], rig.pools[1], rig.kerns[1], rig.eng.Now())
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("pull error = %v, want an injected fault", err)
	}
	if n := rig.kerns[1].Phys.InUse(); n != 0 {
		t.Fatalf("aborted transfer leaked %d frames on the destination", n)
	}
	if _, pending := rig.reg.PendingPull("fn", 1, rig.eng.Now()); pending {
		t.Fatal("a faulted pull must not record a pull window")
	}
	if st := rig.reg.Stats(); st.Transfers != 1 || st.TransferFaults != 1 {
		t.Fatalf("stats = %+v, want 1 attempted transfer, 1 fault", st)
	}
	// Attempt 2 is not scheduled to fail.
	if _, err := rig.reg.Pull("fn", 1, rig.pools[0], rig.pools[1], rig.kerns[1], rig.eng.Now()); err != nil {
		t.Fatal(err)
	}
	rig.teardown(t)
}

// TestReRegistrationAfterLastHolderReleases pins the derived-presence rule:
// once every holder releases the source image, the registry has no source
// (Pull fails); a fresh export on the source host re-registers it with no
// explicit bookkeeping.
func TestReRegistrationAfterLastHolderReleases(t *testing.T) {
	rig := newTransferRig(t, 2)
	m := sim.NewMeter()
	if _, _, err := rig.pools[0].EnsureExportedImage(m); err != nil {
		t.Fatal(err)
	}
	if !rig.pools[0].HasImage() {
		t.Fatal("source image not registered after export")
	}
	// Release the last holder: remove the donor and evict the image.
	for _, c := range rig.pools[0].Containers() {
		rig.pools[0].RemoveContainer(c)
	}
	if !rig.pools[0].EvictImage() {
		t.Fatal("nothing to evict on the source")
	}
	if rig.pools[0].HasImage() {
		t.Fatal("image still registered after the last holder released")
	}
	if _, err := rig.reg.Pull("fn", 1, rig.pools[0], rig.pools[1], rig.kerns[1], rig.eng.Now()); err == nil {
		t.Fatal("pull from a host with no image should fail")
	}
	// A new container re-exports; presence (and pullability) returns.
	if _, err := rig.pools[0].AddContainer(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rig.pools[0].EnsureExportedImage(sim.NewMeter()); err != nil {
		t.Fatal(err)
	}
	if !rig.pools[0].HasImage() {
		t.Fatal("image not re-registered after a fresh export")
	}
	if _, err := rig.reg.Pull("fn", 1, rig.pools[0], rig.pools[1], rig.kerns[1], rig.eng.Now()); err != nil {
		t.Fatalf("pull after re-registration: %v", err)
	}
	rig.teardown(t)
}
