package faas

import (
	"testing"
	"time"

	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
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
