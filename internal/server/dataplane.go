// Data plane: the exported deployment handle, the one way a request reaches
// a deployment. internal/gateway routes both of its listeners through it;
// the control-plane HTTP handlers only list. The hot path needs the
// deployment registry and per-deployment serialization without any JSON —
// raw request in, RequestStats out — and a shutdown a serving front end must
// survive mid-traffic.

package server

import (
	"errors"
	"fmt"
	"math"
	"slices"

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
// the deployment is torn down. Handles are cheap and safe to cache: Invoke,
// Settle and ArmFaults serialize on the deployment's own lock, never the
// server's, so unrelated deployments invoke concurrently.
type Handle struct {
	dep *deployment
}

// DataPlane returns (registering and deploying if needed) the invoke handle
// for fn × mode. Unknown functions and modes, and a function × mode that
// cannot be built (fork on a multi-threaded runtime, FAASM on Node), fail
// here, so the gateway's hot path never re-validates. An unknown mode fails
// before registration, listing the valid ones, and leaves nothing behind.
func (s *Server) DataPlane(fn string, mode isolation.Mode) (*Handle, error) {
	if !slices.Contains(isolation.Modes[:], mode) {
		return nil, fmt.Errorf("unknown mode %q; valid modes: %s", mode, modeList())
	}
	dep, err := s.deployment(fn, mode)
	if err != nil {
		return nil, err
	}
	dep.mu.Lock()
	err = s.deploy(dep)
	dep.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &Handle{dep: dep}, nil
}

// Invoke runs one request from caller against the deployment and returns
// its stats once the response exists, before the request's rollback. It is
// the one request path: under the deployment's lock, taken once, it settles
// the previous request's pending cleanup, re-pools an empty deployment
// (crash-drained or reaped to zero) with a fresh cold start, runs the
// request up to its response (faas.Platform.Respond), counts it and
// republishes the cold-start mean. If another Invoke is waiting for the
// lock, it restores inline before unlocking, since the waiter would wait
// for that restore anyway (§4.5); otherwise it leaves the cleanup pending
// for Settle, or for whoever takes the lock next, which settles first.
// DataPlane deployed the platform before handing out the handle, so only a
// teardown since (ErrGone) stands in the way. Transient failures (injected
// crashes, exhausted cold-start retries) propagate for the caller to answer
// with a retry hint.
func (h *Handle) Invoke(caller string) (st faas.RequestStats, err error) {
	dep := h.dep
	dep.waiters.Add(1)
	dep.mu.Lock()
	dep.waiters.Add(-1)
	defer dep.mu.Unlock()
	if dep.gone {
		return st, ErrGone
	}
	if _, err = dep.settle(); err != nil {
		return st, err
	}
	defer dep.publishColdMean()
	pl := dep.platform
	if len(pl.Containers()) == 0 {
		// Self-heal: one scale-up attempt (the platform's own retry budget
		// applies inside). Failure is transient — the next request tries
		// again.
		if _, err = pl.AddContainer(); err != nil {
			return st, err
		}
	}
	if st, err = pl.Respond(caller); err != nil {
		return st, err
	}
	dep.record(st)
	dep.pending.Store(true)
	if dep.waiters.Load() > 0 {
		_, _ = dep.settle() // a failure stays pending; the waiter reports it
	}
	return st, nil
}

// Settle runs the cleanup the deployment's last Invoke left pending: the
// gateway calls it once the reply has left. It never waits: when another
// request holds the deployment lock, that holder settles first, so Settle
// returns without doing anything. A cleanup that fails stays pending for
// the next Invoke to report.
func (h *Handle) Settle() {
	dep := h.dep
	if !dep.pending.Load() || !dep.mu.TryLock() {
		return
	}
	_, _ = dep.settle()
	dep.mu.Unlock()
}

// ColdStartMeanMs reports the deployment's observed mean cold-start cost in
// milliseconds over every cold start so far (the deploy's, then scale-ups;
// full pipeline and clones pooled) — the signal the gateway derives
// Retry-After from when it sheds load. It takes no lock: a wedged
// deployment still answers.
func (h *Handle) ColdStartMeanMs() float64 {
	return math.Float64frombits(h.dep.coldMeanMs.Load())
}

// ArmFaults arms a deterministic fault plan on the deployment's kernel. The
// kernel is the deployment's own, so the blast radius is this deployment and
// nothing else. A cleanup still pending runs first, under the old plan.
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
	// The previous request's restore runs under the plan it was served
	// under, never the new one.
	if _, err := dep.settle(); err != nil {
		return err
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
// deployment's leak. A pending cleanup is dropped with its container, not
// run. Caller holds dep.mu.
func (dep *deployment) teardown() int {
	if dep.platform == nil {
		return 0
	}
	dep.pending.Store(false)
	dep.platform.Teardown()
	phys := dep.platform.Kern.Phys
	return phys.InUse() + phys.Lent()
}

// publishColdMean stores the platform's mean cold-start cost for
// Handle.ColdStartMeanMs. Caller holds dep.mu.
func (dep *deployment) publishColdMean() {
	cold := dep.platform.ColdStarts()
	if n := cold.Full + cold.Clone; n > 0 {
		dep.coldMeanMs.Store(math.Float64bits(float64(cold.FullCost+cold.CloneCost) / 1e6 / float64(n)))
	}
}

// record updates the per-deployment request counters after a served
// request, so the /deployments listing counts every served request once,
// whichever listener served it. Caller holds dep.mu.
func (dep *deployment) record(st faas.RequestStats) {
	dep.invoked++
	dep.e2e = metrics.PushBounded(dep.e2e, float64(st.E2E)/1e6, e2eWindow)
}

// settle runs the platform's pending cleanup, if any, and counts its
// rollback, so /deployments counts the rollbacks actually done. It returns
// the cleanup half of the stats. A failed cleanup stays pending. Caller
// holds dep.mu.
func (dep *deployment) settle() (faas.RequestStats, error) {
	if !dep.pending.Load() {
		return faas.RequestStats{}, nil
	}
	st, err := dep.platform.Settle()
	if err != nil {
		return st, err
	}
	dep.pending.Store(false)
	if st.Restored {
		dep.restored++
	}
	return st, nil
}
