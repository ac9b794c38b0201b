package server

import (
	"net/http"
	"net/url"
	"testing"
)

// TestDeploymentsReportMemory: after an invocation, /deployments carries the
// per-deployment memory fields — resident pages, frames in use, state-store
// bytes — not just counters — and they are the deployment's own: another
// function deploying moves none of them.
func TestDeploymentsReportMemory(t *testing.T) {
	_, ts := testServer(t)
	if resp := post(t, ts.URL+"/invoke?fn="+url.QueryEscape("get-time (p)")+"&mode=gh", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke: %d", resp.StatusCode)
	}
	var deps []DeploymentInfo
	if resp := get(t, ts.URL+"/deployments", &deps); resp.StatusCode != http.StatusOK {
		t.Fatalf("deployments: %d", resp.StatusCode)
	}
	if len(deps) != 1 {
		t.Fatalf("deployments = %d, want 1", len(deps))
	}
	d := deps[0]
	if d.Containers != 1 {
		t.Fatalf("containers = %d, want 1", d.Containers)
	}
	if d.ResidentPages <= 0 {
		t.Fatalf("resident pages = %d; warm image missing", d.ResidentPages)
	}
	if d.FramesInUse <= 0 {
		t.Fatalf("frames in use = %d", d.FramesInUse)
	}
	// A single-container GH deployment shares no frames with siblings, and
	// pages the requests dirtied may hold real state-store content.
	if d.SharedFramePages != 0 {
		t.Fatalf("single container reports %d shared pages", d.SharedFramePages)
	}
	if d.ResidentPages > d.FramesInUse {
		t.Fatalf("resident pages %d exceed frames in use %d on an unshared deployment",
			d.ResidentPages, d.FramesInUse)
	}

	post(t, ts.URL+"/invoke?fn="+url.QueryEscape("version (p)")+"&mode=gh", nil)
	get(t, ts.URL+"/deployments", &deps)
	if len(deps) != 2 {
		t.Fatalf("deployments = %d, want 2", len(deps))
	}
	for _, after := range deps {
		if after.Function == d.Function && after.FramesInUse != d.FramesInUse {
			t.Fatalf("deploying a second function moved the first one's frames_in_use: %d -> %d",
				d.FramesInUse, after.FramesInUse)
		}
	}
}

// TestShutdownCountsUndeployedLeaks: a frame left behind on the kernel of a
// deployment removed earlier through Undeploy still shows in Shutdown's
// total, although that kernel is no longer reachable from the registry.
func TestShutdownCountsUndeployedLeaks(t *testing.T) {
	s, ts := testServer(t)
	for _, fn := range []string{"get-time (p)", "version (p)"} {
		post(t, ts.URL+"/invoke?fn="+url.QueryEscape(fn)+"&mode=gh", nil)
	}
	s.deployments["get-time (p)|gh"].platform.Kern.Phys.Alloc()
	if !s.Undeploy("get-time (p)", "gh") {
		t.Fatal("undeploy: no such deployment")
	}
	if leaked := s.Shutdown(); leaked != 1 {
		t.Fatalf("Shutdown() = %d leaked frames, want the 1 left on the undeployed kernel", leaked)
	}
}

// TestDeploymentsMemoryOmitsUndeployed: a registered deployment whose
// platform has not been constructed reports zero memory rather than erroring.
func TestDeploymentsMemoryZeroBeforeDeploy(t *testing.T) {
	s, ts := testServer(t)
	// Register a deployment record without constructing its platform.
	if _, err := s.deployment("get-time (p)", "gh"); err != nil {
		t.Fatal(err)
	}
	var deps []DeploymentInfo
	if resp := get(t, ts.URL+"/deployments", &deps); resp.StatusCode != http.StatusOK {
		t.Fatalf("deployments: %d", resp.StatusCode)
	}
	if len(deps) != 1 {
		t.Fatalf("deployments = %d, want 1", len(deps))
	}
	if d := deps[0]; d.FramesInUse != 0 || d.ResidentPages != 0 || d.Containers != 0 {
		t.Fatalf("undeployed entry reports memory: %+v", d)
	}
}
