package experiments

import "testing"

// TestFleetXLBenchQuickWindow covers the scale tier-1 can afford: the 1 s
// window runs the whole 26-function mix, serves requests, knows it is short
// of a million, and is seed-reproducible — FleetXLBenchResult is all scalar
// fields, so == is field-for-field equality. The full window's bytes are
// held by CI's bench-all.
func TestFleetXLBenchQuickWindow(t *testing.T) {
	a, err := FleetXLBench(quick(), true)
	if err != nil {
		t.Fatal(err)
	}
	if a.Functions != len(fleetXLMix) || a.WindowMs != 1000 {
		t.Fatalf("quick window ran %d functions for %.0f ms, want %d for 1000", a.Functions, a.WindowMs, len(fleetXLMix))
	}
	if a.Requests == 0 || a.ReachedMillionRequests {
		t.Fatalf("quick window served %d requests, reached_million_requests %v; want > 0 and false",
			a.Requests, a.ReachedMillionRequests)
	}
	b, err := FleetXLBench(quick(), true)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}
