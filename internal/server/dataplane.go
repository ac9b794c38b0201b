// Data-plane seam: the exported deployment handle internal/gateway routes
// through. The control-plane HTTP handlers (/invoke, /deployments) stay the
// human-facing JSON surface; the gateway's hot path needs the same
// deployment registry and per-deployment serialization without any JSON —
// raw request in, RequestStats out — plus lifecycle operations (undeploy,
// shutdown) a serving front end must survive mid-traffic.

package server

import (
	"errors"
	"fmt"

	"groundhog/internal/faas"
	"groundhog/internal/faults"
	"groundhog/internal/isolation"
	"groundhog/internal/metrics"
)

// ErrGone reports an invoke against a deployment that was undeployed (or a
// server that was shut down). The gateway maps it to 404 and drops its
// cached route; a later request re-registers a fresh deployment.
var ErrGone = errors.New("server: deployment gone")

// Handle is an opaque reference to one fn × mode deployment, valid until
// the deployment is undeployed. Handles are cheap and safe to cache: all
// methods serialize on the deployment's own lock, never the server's, so
// unrelated deployments invoke concurrently.
type Handle struct {
	s   *Server
	dep *deployment
}

// DataPlane returns (registering if needed) the invoke handle for
// fn × mode. Unknown functions and modes fail here, so the gateway's hot
// path never re-validates.
func (s *Server) DataPlane(fn string, mode isolation.Mode) (*Handle, error) {
	if !validMode(mode) {
		return nil, fmt.Errorf("unknown mode %q; valid modes: %s", mode, modeList())
	}
	dep, err := s.deployment(fn, mode)
	if err != nil {
		return nil, err
	}
	return &Handle{s: s, dep: dep}, nil
}

// Invoke runs one request from caller against the deployment (see
// Server.invoke: lazy deploy, self-healing pool) and returns its stats.
func (h *Handle) Invoke(caller string) (faas.RequestStats, error) {
	st, _, err := h.s.invoke(h.dep, caller)
	return st, err
}

// ColdStartMeanMs reports the deployment's observed mean cold-start cost in
// milliseconds over every scale-up so far (full pipeline and clones
// pooled), or 0 before the first deploy — the signal the gateway derives
// Retry-After from when it sheds load.
func (h *Handle) ColdStartMeanMs() float64 {
	dep := h.dep
	dep.mu.Lock()
	defer dep.mu.Unlock()
	if dep.platform == nil {
		return 0
	}
	cold := dep.platform.ColdStarts()
	if n := cold.Full + cold.Clone; n > 0 {
		return float64(cold.TotalCost) / 1e6 / float64(n)
	}
	return 0
}

// ArmFaults arms a deterministic fault plan on the deployment's kernel
// (deploying the platform first if needed). The kernel is the deployment's
// own, so the blast radius is this deployment and nothing else.
func (h *Handle) ArmFaults(plan faults.Plan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	dep := h.dep
	dep.mu.Lock()
	defer dep.mu.Unlock()
	if dep.gone {
		return ErrGone
	}
	if dep.platform == nil {
		if err := dep.deploy(); err != nil {
			return err
		}
	}
	dep.platform.Kern.Faults = faults.New(plan)
	return nil
}

// Undeploy removes fn × mode mid-traffic: the deployment leaves the
// registry, its containers and snapshot image are torn down, and cached
// handles fail with ErrGone. An in-flight invoke holding the deployment lock
// completes and delivers its response first — undeploy never loses an
// accepted request. Returns false when no such deployment exists.
func (s *Server) Undeploy(fn string, mode isolation.Mode) bool {
	s.mu.Lock()
	key := fn + "|" + string(mode)
	dep, ok := s.deployments[key]
	delete(s.deployments, key)
	s.mu.Unlock()
	if ok {
		s.retire(dep)
	}
	return ok
}

// Shutdown undeploys everything and reports the frames left in use on the
// kernel of every deployment this server ever tore down — zero when none
// leaked memory (the serving analogue of trace.Fleet.Teardown). The server
// keeps answering after shutdown: invokes fail with ErrGone until a new
// deployment registers.
func (s *Server) Shutdown() int {
	s.mu.Lock()
	deps := s.deployments
	s.deployments = make(map[string]*deployment)
	s.mu.Unlock()

	for _, dep := range deps {
		s.retire(dep)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaked
}

// retire tears down a deployment already out of the registry and adds what
// its kernel still holds to the server's leak total.
func (s *Server) retire(dep *deployment) {
	dep.mu.Lock()
	dep.gone = true
	left := dep.teardown()
	dep.mu.Unlock()

	s.mu.Lock()
	s.leaked += left
	s.mu.Unlock()
}

// teardown releases the deployment's platform memory — every container
// removed (address spaces exited, snapshot frame references released) and
// the exported image evicted — and returns the frames its kernel still
// counts in use afterwards: the deployment's leak. Caller holds dep.mu.
func (dep *deployment) teardown() int {
	if dep.platform == nil {
		return 0
	}
	for {
		cs := dep.platform.Containers()
		if len(cs) == 0 {
			break
		}
		dep.platform.RemoveContainer(cs[0])
	}
	dep.platform.EvictImage()
	return dep.platform.Kern.Phys.InUse()
}

// record updates the per-deployment request counters after a served
// request, so the /deployments listing counts every served request once,
// whichever plane served it. Caller holds dep.mu.
func (dep *deployment) record(st faas.RequestStats) {
	dep.invoked++
	dep.e2e = metrics.PushBounded(dep.e2e, float64(st.E2E)/1e6, e2eWindow)
	if st.Restored {
		dep.restored++
	}
}
