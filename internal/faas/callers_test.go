package faas

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/mem"
)

func TestTrustedCallersSkipRestores(t *testing.T) {
	pl := newPlatform(t, isolation.ModeGH, 1)
	pl.TrustSameCaller = true
	// Ten requests from Alice, then one from Bob.
	callers := []string{
		"alice", "alice", "alice", "alice", "alice",
		"alice", "alice", "alice", "alice", "alice", "bob",
	}
	stats, err := pl.RunCallers(callers, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(callers) {
		t.Fatalf("stats = %d", len(stats))
	}
	// No restore runs between Alice's own requests...
	for i, st := range stats[:10] {
		if st.Restored || st.Cleanup != 0 {
			t.Fatalf("request %d (alice) triggered cleanup: %+v", i, st)
		}
	}
	for _, st := range stats[1:10] {
		if st.PreRestore != 0 {
			t.Fatal("restore ran between same-caller requests")
		}
	}
	// ...but Bob's request pays the deferred rollback before executing.
	bob := stats[10]
	if bob.PreRestore <= 0 {
		t.Fatalf("caller change did not force the deferred restore: %+v", bob)
	}
}

func TestTrustedCallersStillIsolateAcrossCallers(t *testing.T) {
	pl := newPlatform(t, isolation.ModeGH, 1)
	pl.TrustSameCaller = true
	c := pl.Containers()[0]

	// Alice's request plants a secret (the runtime writes req.Secret into
	// its write set); with trust enabled no rollback follows.
	if _, err := pl.serveAs(c, 1, "alice"); err != nil {
		t.Fatal(err)
	}
	if !c.tainted {
		t.Fatal("container not marked tainted after trusted request")
	}
	// Bob arrives: the rollback must happen before his request executes.
	st, err := pl.serveAs(c, 2, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if st.PreRestore <= 0 {
		t.Fatal("no pre-restore before differently-principaled request")
	}
}

// TestTrustedCallersWipePreviousCallersRequest is the wipe guarantee across
// callers at the faas layer. With TrustSameCaller on, alice's request on a
// leaking profile (logging (p)) is left in place until bob arrives on the
// same container. The runtime writes each request's ID to its stack, its
// registers and its churn: and leak: region names, so after bob's request
// no VMA name, resident word or register may still carry alice's ID. GH
// passes. BASE must fail the same check — the leak:<id> mapping survives —
// which proves the route is reached.
func TestTrustedCallersWipePreviousCallersRequest(t *testing.T) {
	entry, err := catalog.Lookup("logging (p)")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Prof.LeakPages == 0 {
		t.Fatal("logging (p) no longer leaks; the test needs a profile that maps pages per request")
	}
	const aliceID, bobID = 0xA11CE0A11CE0, 0xB0B0B0B0B0
	for _, tc := range []struct {
		mode  isolation.Mode
		leaks bool
	}{{isolation.ModeGH, false}, {isolation.ModeBase, true}} {
		t.Run(string(tc.mode), func(t *testing.T) {
			pl, err := NewPlatform(kernel.Default(), entry.Prof, tc.mode, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			pl.TrustSameCaller = true
			c := pl.Containers()[0]
			if _, err := pl.serveAs(c, aliceID, "alice"); err != nil {
				t.Fatal(err)
			}
			if len(requestTraces(c, aliceID)) == 0 {
				t.Fatal("alice's request left no trace of its ID to look for")
			}
			if _, err := pl.serveAs(c, bobID, "bob"); err != nil {
				t.Fatal(err)
			}
			traces := requestTraces(c, aliceID)
			switch {
			case tc.leaks && len(traces) == 0:
				t.Fatal("BASE wiped alice's request: the check does not reach the leak route")
			case !tc.leaks && len(traces) > 0:
				t.Fatalf("bob's request can see alice's: %s", strings.Join(traces, "; "))
			}
			pl.Teardown()
		})
	}
}

// requestTraces lists where c's process still carries request id: region
// names, resident words and thread registers.
func requestTraces(c *Container, id uint64) []string {
	var out []string
	proc := c.inst.Proc
	name := strconv.FormatUint(id, 10)
	for _, v := range proc.AS.VMAs() {
		if strings.Contains(v.Name, name) {
			out = append(out, fmt.Sprintf("region %q", v.Name))
		}
	}
	for vpn, page := range pageContents(proc.AS) {
		for off := 0; off+mem.WordSize <= len(page); off += mem.WordSize {
			if binary.LittleEndian.Uint64(page[off:]) == id {
				out = append(out, fmt.Sprintf("page %#x offset %d", vpn, off))
			}
		}
	}
	for _, th := range proc.Threads {
		for i, r := range th.Regs.GP {
			if r == id {
				out = append(out, fmt.Sprintf("thread %d GP[%d]", th.TID, i))
			}
		}
	}
	return out
}

func TestTrustedCallersDisabledByDefault(t *testing.T) {
	pl := newPlatform(t, isolation.ModeGH, 1)
	stats, err := pl.RunCallers([]string{"a", "a", "a"}, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		if !st.Restored {
			t.Fatal("restore skipped without TrustSameCaller")
		}
	}
}

func TestForkNeverSkipsCleanup(t *testing.T) {
	prof := testProfile()
	prof.Lang = 0 // LangC
	pl, err := NewPlatform(kernel.Default(), prof, isolation.ModeFork, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pl.TrustSameCaller = true
	if _, err := pl.RunCallers([]string{"a", "a", "a"}, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// All children reaped despite trust: only the warm parent remains.
	if n := liveProcesses(pl.Kern); n != 1 {
		t.Fatalf("processes = %d after trusted fork run, want 1", n)
	}
}

func TestRunCallersRejectsEmptySequence(t *testing.T) {
	pl := newPlatform(t, isolation.ModeBase, 1)
	if _, err := pl.RunCallers(nil, 0); err == nil {
		t.Fatal("empty caller sequence accepted")
	}
}

// TestRespondWipesPendingCleanup is the wipe guarantee across the live
// plane's pending-cleanup window. Alice's request is answered with Respond
// and its rollback left pending; bob's Respond follows with no Settle in
// between, so only Respond's own leading settle stands between the two.
// After bob's response no VMA name, resident word or register may still
// carry alice's request ID. BASE must fail the same check, which proves the
// route is reached. Torn down with bob's cleanup still pending, the platform
// gives back every frame and lent page.
func TestRespondWipesPendingCleanup(t *testing.T) {
	entry, err := catalog.Lookup("logging (p)")
	if err != nil {
		t.Fatal(err)
	}
	const aliceID, bobID = 0xA11CE0A11CE0, 0xB0B0B0B0B0
	for _, tc := range []struct {
		mode  isolation.Mode
		leaks bool
	}{{isolation.ModeGH, false}, {isolation.ModeBase, true}} {
		t.Run(string(tc.mode), func(t *testing.T) {
			pl, err := NewPlatform(kernel.Default(), entry.Prof, tc.mode, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			c := pl.Containers()[0]
			c.requestsSeq = aliceID - 1
			if _, err := pl.Respond("alice"); err != nil {
				t.Fatal(err)
			}
			if len(requestTraces(c, aliceID)) == 0 {
				t.Fatal("alice's request left no trace of its ID to look for")
			}
			c.requestsSeq = bobID - 1
			if _, err := pl.Respond("bob"); err != nil {
				t.Fatal(err)
			}
			traces := requestTraces(c, aliceID)
			switch {
			case tc.leaks && len(traces) == 0:
				t.Fatal("BASE wiped alice's request: the check does not reach the leak route")
			case !tc.leaks && len(traces) > 0:
				t.Fatalf("bob's request can see alice's: %s", strings.Join(traces, "; "))
			}
			pl.Teardown()
			if phys := pl.Kern.Phys; phys.InUse() != 0 || phys.Lent() != 0 {
				t.Fatalf("teardown with a cleanup pending left %d frames in use, %d pages lent", phys.InUse(), phys.Lent())
			}
		})
	}
}
