// Package server exposes the simulated FaaS platform over HTTP — a
// "provider in a box" for exploring Groundhog interactively. Deployments
// (one platform per function × isolation mode) are created lazily on first
// invocation and stay warm, exactly like reused containers; repeated
// invocations against the same deployment therefore exercise container
// reuse with or without request isolation. Each deployment owns its kernel
// and physical-memory pool, so /deployments reports per-deployment memory.
//
// Endpoints:
//
//	GET  /healthz                      liveness
//	GET  /functions                    the 58-benchmark catalog
//	GET  /modes                        isolation modes
//	POST /invoke?fn=NAME&mode=MODE[&caller=ID]
//	                                   run one request; JSON stats
//	GET  /deployments                  active deployments and counters
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/faas"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/metrics"
	"groundhog/internal/runtimes"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
)

// Server multiplexes HTTP requests onto simulated platforms. Each platform
// simulation is single-threaded, so a per-deployment mutex serializes
// invocations of the same function × mode; unrelated deployments run
// concurrently. The server's own mutex guards the deployments map, the
// deploy-time configuration and the leak total.
type Server struct {
	mu    sync.Mutex
	seed  uint64
	trust bool

	deployments map[string]*deployment
	// leaked sums the frames still in use on the kernels of deployments
	// already torn down (Undeploy, Shutdown): their kernels are gone, so
	// this total is all that is left for Shutdown to report.
	leaked int
}

// deployment is one function × mode platform on a kernel of its own. Its
// mutex covers the platform (constructed lazily on the first invocation, so
// a slow cold start never blocks the whole server) and the invocation
// counter.
type deployment struct {
	fn    string
	mode  isolation.Mode
	prof  runtimes.Profile
	seed  uint64
	trust bool

	mu       sync.Mutex
	platform *faas.Platform
	// gone marks an undeployed deployment: the record left the registry
	// (Undeploy, Shutdown) and cached data-plane handles must fail with
	// ErrGone instead of reviving it.
	gone     bool
	invoked  int
	restored int
	// e2e is a drop-oldest ring of recent per-request end-to-end latency
	// samples (ms) — the windowed latency summary /deployments reports and
	// the policy advice reads. Bounded like the fleet's observation rings,
	// so a long-lived server neither grows without bound nor re-sorts its
	// whole history per listing.
	e2e []float64
}

// e2eWindow bounds the per-deployment latency ring (matching the fleet's
// latencyWindow semantics: breaches and calm spells both age out).
const e2eWindow = 128

// New returns a server whose deployments run on the default cost model.
func New() *Server {
	return &Server{seed: 1, deployments: make(map[string]*deployment)}
}

// SetTrustSameCaller enables the §4.4 trusted-caller optimization on all
// future deployments.
func (s *Server) SetTrustSameCaller(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trust = on
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/functions", s.handleFunctions)
	mux.HandleFunc("/modes", s.handleModes)
	mux.HandleFunc("/invoke", s.handleInvoke)
	mux.HandleFunc("/deployments", s.handleDeployments)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// FunctionInfo is one catalog entry in the /functions listing.
type FunctionInfo struct {
	Name       string  `json:"name"`
	Suite      string  `json:"suite"`
	Language   string  `json:"language"`
	ExecMS     float64 `json:"exec_ms"`
	TotalPages int     `json:"total_pages"`
	DirtyPages int     `json:"dirty_pages"`
}

func (s *Server) handleFunctions(w http.ResponseWriter, r *http.Request) {
	var out []FunctionInfo
	for _, e := range catalog.All() {
		out = append(out, FunctionInfo{
			Name:       e.Prof.DisplayName(),
			Suite:      string(e.Suite),
			Language:   e.Prof.Lang.String(),
			ExecMS:     float64(e.Prof.Exec) / 1e6,
			TotalPages: e.Prof.TotalPages,
			DirtyPages: e.Prof.DirtyPages,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleModes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, isolation.Modes)
}

// validMode reports whether mode is one of isolation.Modes. Unknown values
// are rejected up front with a 400 instead of surfacing as a generic deploy
// error from strategy construction.
func validMode(mode isolation.Mode) bool {
	return slices.Contains(isolation.Modes, mode)
}

// modeList renders the allowed mode names for error messages.
func modeList() string {
	names := make([]string, len(isolation.Modes))
	for i, m := range isolation.Modes {
		names[i] = string(m)
	}
	return strings.Join(names, ", ")
}

// InvokeResponse is the JSON result of POST /invoke.
type InvokeResponse struct {
	Function     string  `json:"function"`
	Mode         string  `json:"mode"`
	Caller       string  `json:"caller,omitempty"`
	InvokerMS    float64 `json:"invoker_ms"`
	E2EMS        float64 `json:"e2e_ms"`
	RestoreMS    float64 `json:"restore_ms"`
	Restored     bool    `json:"restored"`
	PreRestoreMS float64 `json:"pre_restore_ms,omitempty"`
	ColdStartMS  float64 `json:"cold_start_ms,omitempty"` // present on the deployment's first request
	VirtualTime  string  `json:"virtual_time"`
}

func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	fn := r.URL.Query().Get("fn")
	mode := isolation.Mode(r.URL.Query().Get("mode"))
	if mode == "" {
		mode = isolation.ModeGH
	}
	if !validMode(mode) {
		http.Error(w, fmt.Sprintf("unknown mode %q; valid modes: %s", mode, modeList()),
			http.StatusBadRequest)
		return
	}
	caller := r.URL.Query().Get("caller")

	dep, err := s.deployment(fn, mode)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	st, deployCold, err := s.invoke(dep, caller)
	if err != nil {
		var de deployError
		switch {
		case errors.Is(err, ErrGone):
			// Undeployed between the registry lookup and the lock: the record is
			// already out of the map, so the client's retry re-registers afresh.
			http.Error(w, err.Error(), http.StatusNotFound)
		case errors.As(err, &de):
			http.Error(w, err.Error(), http.StatusBadRequest)
		case faas.IsTransient(err):
			// Transient failures — a crashed container, an exhausted cold-start
			// retry budget — are the client's cue to retry, not a server bug:
			// 503 with a Retry-After, like a real invoker shedding load during a
			// failure burst.
			w.Header().Set("Retry-After", "1")
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	writeJSON(w, http.StatusOK, InvokeResponse{
		Function:     fn,
		Mode:         string(mode),
		Caller:       caller,
		InvokerMS:    float64(st.Invoker) / 1e6,
		E2EMS:        float64(st.E2E) / 1e6,
		RestoreMS:    float64(st.Cleanup) / 1e6,
		Restored:     st.Restored,
		PreRestoreMS: float64(st.PreRestore) / 1e6,
		ColdStartMS:  float64(deployCold) / 1e6,
		VirtualTime:  st.Completed.String(), // InvokeOnce ran the deployment's clock up to it
	})
}

// invoke is the one request path, shared by the control plane's /invoke and
// the data plane's Handle.Invoke: deploy the platform on first use, re-pool
// an empty deployment (crash-drained or reaped to zero) with a fresh cold
// start, run the request, count it. deployCold is the deploy pipeline's cost
// on the request that built the platform, zero afterwards. Transient
// failures (injected crashes, exhausted cold-start retries) propagate for
// the caller to map to 503 + Retry-After.
func (s *Server) invoke(dep *deployment, caller string) (st faas.RequestStats, deployCold sim.Duration, err error) {
	dep.mu.Lock()
	defer dep.mu.Unlock()
	if dep.gone {
		return st, 0, ErrGone
	}
	if dep.platform == nil {
		if err = dep.deploy(); err != nil {
			// Drop the record, so the next invocation retries, /deployments
			// never lists a dead entry and cached handles see ErrGone. s.mu
			// under dep.mu is the one lock order: nothing locks a deployment
			// while holding s.mu.
			s.mu.Lock()
			delete(s.deployments, dep.fn+"|"+string(dep.mode))
			s.mu.Unlock()
			dep.gone = true
			return st, 0, err
		}
		deployCold = dep.platform.Containers()[0].ColdStart().Total
	}
	pl := dep.platform
	if len(pl.Containers()) == 0 {
		// Self-heal: one scale-up attempt (the platform's own retry budget
		// applies inside). Failure is transient — the next request tries
		// again.
		if _, err = pl.AddContainer(); err != nil {
			return st, 0, err
		}
	}
	if st, err = pl.InvokeOnce(caller); err != nil {
		return st, 0, err
	}
	dep.record(st)
	return st, deployCold, nil
}

// deployment returns (registering if needed) the deployment record for
// fn × mode. Only the map is touched under the server lock; the platform
// itself is constructed later under the deployment's own lock.
func (s *Server) deployment(fn string, mode isolation.Mode) (*deployment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := fn + "|" + string(mode)
	if dep, ok := s.deployments[key]; ok {
		return dep, nil
	}
	entry, err := catalog.Lookup(fn)
	if err != nil {
		return nil, err
	}
	dep := &deployment{fn: fn, mode: mode, prof: entry.Prof, seed: s.seed, trust: s.trust}
	s.deployments[key] = dep
	return dep, nil
}

// deployError marks a failed platform construction — a function × mode
// that cannot be built (fork on a multi-threaded runtime) — which the
// control plane answers with 400 rather than 500.
type deployError struct{ error }

func (e deployError) Unwrap() error { return e.error }

// deploy constructs the platform (the cold start) with its own virtual
// timeline, kernel and physical-memory pool. Caller holds d.mu.
func (d *deployment) deploy() error {
	pl, err := faas.NewPlatform(kernel.Default(), d.prof, d.mode, 1, d.seed)
	if err != nil {
		return deployError{fmt.Errorf("deploy %s under %s: %w", d.fn, d.mode, err)}
	}
	pl.TrustSameCaller = d.trust
	d.platform = pl
	return nil
}

// DeploymentInfo is one entry of the /deployments listing. Beyond the
// request counters it reports the deployment's memory accounting (the
// managers' state-store bytes, the containers' resident pages, the physical
// frames actually in use, and how many resident pages ride on frames shared
// with siblings), the cumulative cold-start split by path, the observed
// latency summary, and — from the same signals — what each built-in
// scheduling policy would decide right now.
type DeploymentInfo struct {
	Function   string `json:"function"`
	Mode       string `json:"mode"`
	Invoked    int    `json:"invoked"`
	Restored   int    `json:"restored"`
	Containers int    `json:"containers"`

	ColdStartMS      float64 `json:"cold_start_ms"`
	StateStoreBytes  int     `json:"state_store_bytes"`
	ResidentPages    int     `json:"resident_pages"`
	FramesInUse      int     `json:"frames_in_use"`
	SharedFramePages int     `json:"shared_frame_pages"`
	VirtualTime      string  `json:"virtual_time"`

	// Cold-start split: pipeline vs. snapshot-clone scale-ups over the
	// deployment's lifetime (removed containers included), with the summed
	// virtual cost — the provider's scale-up bill. Clone starts are further
	// split by where the image came from: a cross-host transfer or a
	// host-local template (a single-host server reports zero transfers; the
	// field exists so the listing's shape matches the cluster simulation's
	// cold-start taxonomy).
	FullColdStarts          int     `json:"full_cold_starts"`
	TransferCloneColdStarts int     `json:"transfer_clone_cold_starts"`
	LocalCloneColdStarts    int     `json:"local_clone_cold_starts"`
	CloneColdStarts         int     `json:"clone_cold_starts"`
	ColdStartTotalMS        float64 `json:"cold_start_total_ms"`
	CloneColdStartReady     bool    `json:"clone_cold_start_ready"`

	// Latency summary over the most recent served requests (ms, windowed
	// like the fleet's observation rings).
	E2EMeanMS float64 `json:"e2e_mean_ms"`
	E2EP50MS  float64 `json:"e2e_p50_ms"`
	E2EP95MS  float64 `json:"e2e_p95_ms"`
	E2EP99MS  float64 `json:"e2e_p99_ms"`

	// Recovery counters (faas.RecoveryStats): how often this deployment's
	// failures were absorbed — cold-start retries, clone→pipeline
	// fallbacks, crashes, post-response restore faults, integrity
	// failures, quarantined donors. All zero on a fault-free platform.
	ColdStartRetries       int `json:"cold_start_retries"`
	CloneFallbacks         int `json:"clone_fallbacks"`
	Crashes                int `json:"crashes"`
	RestoreFaults          int `json:"restore_faults"`
	ImageIntegrityFailures int `json:"image_integrity_failures"`
	DonorsQuarantined      int `json:"donors_quarantined"`

	// Policies reports each built-in scheduling policy's decisions against
	// the deployment's current signals (idle time taken from its idlest
	// container).
	Policies []trace.Advice `json:"policies"`
}

// describe renders one deployment's listing entry. Caller holds dep.mu.
func (dep *deployment) describe() DeploymentInfo {
	info := DeploymentInfo{
		Function: dep.fn,
		Mode:     string(dep.mode),
		Invoked:  dep.invoked,
		Restored: dep.restored,
	}
	if dep.platform == nil {
		return info
	}
	pl := dep.platform
	now := pl.Engine.Now()
	// Zero containers (keep-alive expiry) reports a zero cold start
	// instead of panicking the handler.
	cs := pl.Containers()
	if len(cs) > 0 {
		info.ColdStartMS = float64(cs[0].ColdStart().Total) / 1e6
	}
	info.Containers = len(cs)
	mem := pl.Memory()
	info.StateStoreBytes = mem.StateStoreBytes
	info.ResidentPages = mem.ResidentPages
	info.FramesInUse = mem.FramesInUse
	info.SharedFramePages = mem.SharedFramePages
	info.VirtualTime = now.String()

	cold := pl.ColdStarts()
	info.FullColdStarts = cold.Full
	info.CloneColdStarts = cold.Clone
	info.TransferCloneColdStarts = cold.TransferClone
	info.LocalCloneColdStarts = cold.Clone - cold.TransferClone
	info.ColdStartTotalMS = float64(cold.TotalCost) / 1e6
	info.CloneColdStartReady = pl.CloneSourceReady()

	if len(dep.e2e) > 0 {
		e2e := metrics.NewSummary(append([]float64(nil), dep.e2e...))
		info.E2EMeanMS = e2e.Mean()
		info.E2EP50MS = e2e.Percentile(50)
		info.E2EP95MS = e2e.Percentile(95)
		info.E2EP99MS = e2e.P99()
	}

	rec := pl.Recovery()
	info.ColdStartRetries = rec.ColdStartRetries
	info.CloneFallbacks = rec.CloneFallbacks
	info.Crashes = rec.Crashes
	info.RestoreFaults = rec.RestoreFaults
	info.ImageIntegrityFailures = rec.ImageIntegrityFailures
	info.DonorsQuarantined = rec.DonorsQuarantined

	// The policies read a signal set assembled from the platform's
	// cumulative view. It approximates (but is not identical to) what a
	// fleet dispatcher would see: the rate proxy is served invocations
	// over virtual uptime, the cold-start means include the deploy-time
	// pipeline, the latency summary is recent-window E2E (service time
	// unavailable separately), and no SLO target is configured — so the
	// advice shows each policy's leanings, not a bit-exact fleet decision.
	sig := trace.Signals{
		Now:        now,
		PoolSize:   len(cs),
		Requests:   dep.invoked,
		CloneReady: info.CloneColdStartReady,
		MeanE2EMs:  info.E2EMeanMS,
		P95E2EMs:   info.E2EP95MS,
		Memory:     trace.StaticMemory(mem),
	}
	if now > 0 {
		sig.ArrivalRatePerSec = float64(dep.invoked) / (float64(now) / 1e9)
	}
	if cold.Full > 0 {
		sig.MeanFullColdMs = float64(cold.FullCost) / 1e6 / float64(cold.Full)
	}
	if cold.Clone > 0 {
		sig.MeanCloneColdMs = float64(cold.CloneCost) / 1e6 / float64(cold.Clone)
	}
	var idle time.Duration
	for _, c := range cs {
		since := c.LastDone()
		if since == 0 {
			since = c.Ready()
		}
		if d := now.Sub(since); d > idle {
			idle = d
		}
	}
	// The advice runs the same policy list (and FixedTTL operating point)
	// the policy benchmark races. Those TTLs are virtual-clock scale, as a
	// deployment's clock only advances by served virtual time —
	// wall-scale keep-alives would render the advice constant false.
	info.Policies = trace.Advise(sig, idle, trace.DefaultPolicies()...)
	return info
}

func (s *Server) handleDeployments(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	deps := make([]*deployment, 0, len(s.deployments))
	for _, dep := range s.deployments {
		deps = append(deps, dep)
	}
	s.mu.Unlock()

	out := []DeploymentInfo{}
	for _, dep := range deps {
		dep.mu.Lock()
		out = append(out, dep.describe())
		dep.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, out)
}
