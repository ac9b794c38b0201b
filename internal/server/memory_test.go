package server

import (
	"errors"
	"sync"
	"testing"

	"groundhog/internal/isolation"
)

// TestDeploymentsReportMemory: after an invocation, /deployments carries the
// per-deployment memory fields — resident pages, frames in use, state-store
// bytes — not just counters — and they are the deployment's own: another
// function deploying moves none of them.
func TestDeploymentsReportMemory(t *testing.T) {
	s, ts := testServer(t)
	invoke(t, s, "get-time (p)", isolation.ModeGH, "")
	deps := deployments(t, ts)
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

	invoke(t, s, "version (p)", isolation.ModeGH, "")
	deps = deployments(t, ts)
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
// deployment Shutdown tears down shows in its total, and only the call that
// tore that deployment down reports it.
func TestShutdownCountsUndeployedLeaks(t *testing.T) {
	s, _ := testServer(t)
	for _, fn := range []string{"get-time (p)", "version (p)"} {
		invoke(t, s, fn, isolation.ModeGH, "")
	}
	dep := s.deployments["get-time (p)|gh"]
	dep.mu.Lock()
	if _, err := dep.settle(); err != nil {
		t.Fatal(err)
	}
	dep.platform.Kern.Phys.Alloc()
	dep.mu.Unlock()
	if leaked := s.Shutdown(); leaked != 1 {
		t.Fatalf("Shutdown() = %d leaked frames, want the 1 left on get-time's kernel", leaked)
	}
	invoke(t, s, "version (p)", isolation.ModeGH, "")
	if leaked := s.Shutdown(); leaked != 0 {
		t.Fatalf("second Shutdown() = %d leaked frames, want 0 from the fresh deployment", leaked)
	}
}

// TestDeployWhileShuttingDown: deployments register, deploy and serve on
// several goroutines while another tears the server down over and over. Each
// deployment has its own kernel, but the page memory a torn-down one frees
// goes to whichever deploys next, on whatever goroutine; under -race this
// holds that hand-over. Every request is served or finds its deployment gone,
// and no teardown leaks a frame.
func TestDeployWhileShuttingDown(t *testing.T) {
	s := New()
	stop := make(chan struct{})
	shut := make(chan int)
	go func() {
		leaked := 0
		for {
			select {
			case <-stop:
				shut <- leaked
				return
			default:
				leaked += s.Shutdown()
			}
		}
	}()
	var wg sync.WaitGroup
	for _, fn := range []string{"bicg (c)", "heat-3d (c)", "seidel-2d (c)", "get-time (p)"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				h, err := s.DataPlane(fn, isolation.ModeGH)
				if err == nil {
					_, err = h.Invoke("alice")
				}
				if err != nil && !errors.Is(err, ErrGone) {
					t.Errorf("%s round %d: %v", fn, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if leaked := <-shut + s.Shutdown(); leaked != 0 {
		t.Fatalf("teardowns racing deploys leaked %d frames", leaked)
	}
}

// TestDeploymentsMemoryZeroBeforeDeploy: a registered deployment whose
// platform has not been constructed reports zero memory rather than erroring.
func TestDeploymentsMemoryZeroBeforeDeploy(t *testing.T) {
	s, ts := testServer(t)
	// Register a deployment record without constructing its platform.
	if _, err := s.deployment("get-time (p)", "gh"); err != nil {
		t.Fatal(err)
	}
	deps := deployments(t, ts)
	if len(deps) != 1 {
		t.Fatalf("deployments = %d, want 1", len(deps))
	}
	if d := deps[0]; d.FramesInUse != 0 || d.ResidentPages != 0 || d.Containers != 0 {
		t.Fatalf("undeployed entry reports memory: %+v", d)
	}
}
