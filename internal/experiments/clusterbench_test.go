package experiments

import (
	"reflect"
	"testing"

	"groundhog/internal/cluster"
)

// TestClusterBenchInvariants pins the placement benchmark's guarantees in
// quick mode: one entry per built-in placer, no placer loses a request or
// leaks a frame through the host failure and drain, the scheduled transfer
// abort fires for at least one placer, and the cold-start taxonomy adds up.
func TestClusterBenchInvariants(t *testing.T) {
	res, err := ClusterBench(quick(), true)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cluster.Placers()); len(res) != want {
		t.Fatalf("placer entries = %d, want %d", len(res), want)
	}
	transfers, faults, crashes := 0, 0, 0
	for _, r := range res {
		if r.Arrived == 0 {
			t.Fatalf("%s: no requests arrived", r.Placer)
		}
		if r.LostRequests != 0 {
			t.Fatalf("%s: lost %d of %d requests", r.Placer, r.LostRequests, r.Arrived)
		}
		if r.LeakedFrames != 0 {
			t.Fatalf("%s: teardown leaked %d frames", r.Placer, r.LeakedFrames)
		}
		// The failing host only carries containers under spreading placers;
		// the drain targets the packed host, so every placer loses capacity
		// to at least one of the two events.
		if r.HostCrashes+r.Drained == 0 {
			t.Fatalf("%s: neither the failure nor the drain removed a container", r.Placer)
		}
		if len(r.PerHost) != r.Hosts {
			t.Fatalf("%s: %d per-host rows for %d hosts", r.Placer, len(r.PerHost), r.Hosts)
		}
		failed, drained := 0, 0
		for _, h := range r.PerHost {
			switch h.State {
			case "failed":
				failed++
			case "drained":
				drained++
			}
		}
		if failed != 1 || drained != 1 {
			t.Fatalf("%s: host states %d failed / %d drained, want 1/1", r.Placer, failed, drained)
		}
		transfers += r.Transfers
		faults += r.TransferFaults
		crashes += r.HostCrashes
	}
	if transfers == 0 {
		t.Fatal("no placer paid a cross-host transfer")
	}
	if crashes == 0 {
		t.Fatal("the host failure removed no containers under any placer")
	}
	if faults == 0 {
		t.Fatal("the scheduled image-transfer abort never fired")
	}
}

// TestClusterBenchDeterministic: the gated JSON is byte-stable, so two runs
// with the same config must be deeply equal.
func TestClusterBenchDeterministic(t *testing.T) {
	a, err := ClusterBench(quick(), true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusterBench(quick(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}
