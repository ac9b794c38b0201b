package experiments

import "testing"

func TestRegistryEntriesWellFormed(t *testing.T) {
	names, artifacts := map[string]bool{}, map[string]bool{}
	for _, e := range Registry {
		if e.Name == "" || names[e.Name] {
			t.Errorf("registry name %q is empty or repeated", e.Name)
		}
		names[e.Name] = true
		if (e.Run == nil) == (e.View == nil) {
			t.Errorf("%s: exactly one of Run and View must be set", e.Name)
		}
		if got, ok := Lookup(e.Name); !ok || got.Name != e.Name {
			t.Errorf("Lookup(%q) = %q, %v", e.Name, got.Name, ok)
		}
		if e.Artifact == "" {
			if e.FullWindow {
				t.Errorf("%s: FullWindow describes an artifact, and it has none", e.Name)
			}
			continue
		}
		if artifacts[e.Artifact] || e.Run == nil {
			t.Errorf("%s: artifact %q is repeated, or has no Run to produce it", e.Name, e.Artifact)
		}
		artifacts[e.Artifact] = true
	}
	// "all" and "bench-all" are ghbench's two group selectors.
	for _, reserved := range []string{"all", "bench-all"} {
		if names[reserved] {
			t.Errorf("registry name %q shadows ghbench's group selector", reserved)
		}
	}
}

// TestEverySuiteGatedEveryBaselineProduced holds the Registry and
// bench/baselines/ to each other: a suite without a committed baseline would
// fail CI's directory benchdiff only after merge, and a baseline without a
// producer is a file the gate compares against nothing.
func TestEverySuiteGatedEveryBaselineProduced(t *testing.T) {
	committed := committedBaselines(t)
	for _, e := range Registry {
		if e.Artifact == "" {
			continue
		}
		if !committed[e.Artifact] {
			t.Errorf("%s writes %s, which has no committed baseline", e.Name, e.Artifact)
		}
		delete(committed, e.Artifact)
	}
	for name := range committed {
		t.Errorf("baseline %s has no producer in the Registry", name)
	}
}
