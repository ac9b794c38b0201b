// Data-plane seam: the exported deployment handle internal/gateway routes
// through. The control-plane HTTP handlers (/invoke, /deployments) stay the
// human-facing JSON surface; the gateway's hot path needs the same
// deployment registry and per-deployment serialization without any JSON —
// raw request in, RequestStats out — and a shutdown a serving front end must
// survive mid-traffic.

package server

import (
	"errors"
	"fmt"

	"groundhog/internal/faas"
	"groundhog/internal/faults"
	"groundhog/internal/isolation"
	"groundhog/internal/metrics"
)

// ErrGone reports an invoke against a deployment that was torn down by
// Shutdown or whose deploy failed. The gateway maps it to 404 and drops its
// cached route; a later request re-registers a fresh deployment.
var ErrGone = errors.New("server: deployment gone")

// Handle is an opaque reference to one fn × mode deployment, valid until
// the deployment is torn down. Handles are cheap and safe to cache: all
// methods serialize on the deployment's own lock, never the server's, so
// unrelated deployments invoke concurrently.
type Handle struct {
	s   *Server
	dep *deployment
}

// DataPlane returns (registering and deploying if needed) the invoke handle
// for fn × mode. Unknown functions and modes, and a function × mode that
// cannot be built (fork on a multi-threaded runtime, FAASM on Node), fail
// here, so the gateway's hot path never re-validates.
func (s *Server) DataPlane(fn string, mode isolation.Mode) (*Handle, error) {
	if !validMode(mode) {
		return nil, fmt.Errorf("unknown mode %q; valid modes: %s", mode, modeList())
	}
	dep, err := s.deployment(fn, mode)
	if err != nil {
		return nil, err
	}
	dep.mu.Lock()
	_, err = s.deploy(dep)
	dep.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &Handle{s: s, dep: dep}, nil
}

// Invoke runs one request from caller against the deployment (see
// Server.invoke: self-healing pool) and returns its stats.
func (h *Handle) Invoke(caller string) (faas.RequestStats, error) {
	st, _, err := h.s.invoke(h.dep, caller)
	return st, err
}

// ColdStartMeanMs reports the deployment's observed mean cold-start cost in
// milliseconds over every cold start so far (the deploy's, then scale-ups;
// full pipeline and clones pooled) — the signal the gateway derives
// Retry-After from when it sheds load.
func (h *Handle) ColdStartMeanMs() float64 {
	dep := h.dep
	dep.mu.Lock()
	defer dep.mu.Unlock()
	cold := dep.platform.ColdStarts()
	if n := cold.Full + cold.Clone; n > 0 {
		return float64(cold.FullCost+cold.CloneCost) / 1e6 / float64(n)
	}
	return 0
}

// ArmFaults arms a deterministic fault plan on the deployment's kernel. The
// kernel is the deployment's own, so the blast radius is this deployment and
// nothing else.
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
	dep.platform.Kern.Faults = faults.New(plan)
	return nil
}

// Shutdown takes every deployment out of the registry, tears each down and
// reports the frames their kernels still hold afterwards, and the pages they
// still lend — zero when none leaked memory (the serving analogue of trace.Fleet.Teardown). An in-flight
// invoke holding a deployment's lock completes and delivers its response
// first — shutdown never loses an accepted request. The server keeps
// answering after shutdown: cached handles fail with ErrGone, and a new
// request registers a fresh deployment.
func (s *Server) Shutdown() int {
	s.mu.Lock()
	deps := s.deployments
	s.deployments = make(map[string]*deployment)
	s.mu.Unlock()

	leaked := 0
	for _, dep := range deps {
		dep.mu.Lock()
		dep.gone = true
		leaked += dep.teardown()
		dep.mu.Unlock()
	}
	return leaked
}

// teardown tears the deployment's platform down and returns the frames its
// kernel still counts in use afterwards, plus the pages it still lends: the
// deployment's leak. Caller holds dep.mu.
func (dep *deployment) teardown() int {
	if dep.platform == nil {
		return 0
	}
	dep.platform.Teardown()
	phys := dep.platform.Kern.Phys
	return phys.InUse() + phys.Lent()
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
