package core

import (
	"testing"

	"groundhog/internal/kernel"
)

// A thread spawned after the snapshot cannot be restored: its registers were
// never recorded. Groundhog's restore must fail loudly rather than leave the
// process half-restored.
func TestRestoreRejectsNewThreads(t *testing.T) {
	_, p, m := newManagedProcess(t, 2, 8, DefaultOptions())
	p.SpawnThread()
	if _, err := m.Restore(); err == nil {
		t.Fatal("restore succeeded despite a post-snapshot thread")
	}
}

func TestVerifyBeforeSnapshotFails(t *testing.T) {
	k := kernel.New(kernel.Default())
	p, err := k.Spawn(kernel.ExecSpec{TextPages: 2, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(k, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err == nil {
		t.Fatal("verify before snapshot succeeded")
	}
	if m.StateStoreBytes() != 0 {
		t.Fatal("state store non-empty before snapshot")
	}
	if m.HasSnapshot() {
		t.Fatal("manager has a snapshot before TakeSnapshot")
	}
}

func TestManagerOnDeadProcessFails(t *testing.T) {
	k := kernel.New(kernel.Default())
	p, err := k.Spawn(kernel.ExecSpec{TextPages: 2, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	k.Exit(p)
	if _, err := NewManager(k, p, DefaultOptions()); err == nil {
		t.Fatal("manager attached to a dead process")
	}
}

func TestTrackerAndStoreNames(t *testing.T) {
	if TrackSoftDirty.String() != "soft-dirty" || TrackUffd.String() != "uffd" {
		t.Fatal("tracker names wrong")
	}
	if StoreCopy.String() != "copy" || StoreCoW.String() != "cow" {
		t.Fatal("store names wrong")
	}
}

func TestManagerAccessors(t *testing.T) {
	_, p, m := newManagedProcess(t, 1, 4, DefaultOptions())
	if m.Process() != p {
		t.Fatal("Process accessor wrong")
	}
	if !m.HasSnapshot() {
		t.Fatal("HasSnapshot false after TakeSnapshot")
	}
	if m.StateStoreBytes() < 0 {
		t.Fatal("negative store bytes")
	}
}
