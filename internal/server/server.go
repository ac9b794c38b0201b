// Package server holds the simulated FaaS platform — a "provider in a box"
// for exploring Groundhog interactively. Deployments (one platform per
// function × isolation mode) are deployed when the data plane first routes
// a request to them and stay warm, exactly like reused containers; repeated
// invocations against the same deployment therefore exercise container
// reuse with or without request isolation. Each deployment owns its kernel
// and physical-memory pool, so /deployments reports per-deployment memory.
//
// Requests reach a deployment one way: through the Handle that DataPlane
// returns (dataplane.go), which internal/gateway fronts with admission
// control on HTTP POST /fn/<name> and on its binary listener. The JSON
// control plane only reads:
//
//	GET  /healthz                      liveness
//	GET  /functions                    the 58-benchmark catalog
//	GET  /modes                        isolation modes
//	GET  /deployments                  active deployments and counters
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/faas"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/metrics"
	"groundhog/internal/runtimes"
	"groundhog/internal/trace"
)

// Server is the registry of simulated platforms. Each platform simulation
// is single-threaded, so a per-deployment mutex serializes invocations of
// the same function × mode; unrelated deployments run concurrently. The server's own mutex guards the deployments map and the
// deploy-time configuration.
type Server struct {
	mu    sync.Mutex
	seed  uint64
	trust bool

	deployments map[string]*deployment
}

// deployment is one function × mode platform on a kernel of its own. Its
// mutex covers the platform (constructed under it, not the server's lock,
// so a slow cold start never blocks the whole server) and the invocation
// counters.
type deployment struct {
	fn    string
	mode  isolation.Mode
	prof  runtimes.Profile
	seed  uint64
	trust bool

	mu sync.Mutex
	// pending is set while the last Invoke's cleanup waits on the platform
	// (faas.Platform.Settle); waiters counts the Invokes blocked on mu. Both
	// are atomics so Handle.Settle and the unlocking Invoke read them without
	// the lock.
	pending  atomic.Bool
	waiters  atomic.Int32
	platform *faas.Platform
	// gone marks a torn-down deployment: the record left the registry
	// (Shutdown, or a failed deploy) and cached data-plane handles must fail
	// with ErrGone instead of reviving it.
	gone    bool
	invoked int
	// restored counts the rollbacks actually done, at settle time.
	restored int
	// e2e is a drop-oldest ring of recent per-request end-to-end latency
	// samples (ms) — the windowed latency summary /deployments reports and
	// the policy advice reads. Bounded like the fleet's observation rings,
	// so a long-lived server neither grows without bound nor re-sorts its
	// whole history per listing.
	e2e []float64
	// coldMeanMs holds the float64 bits of the platform's mean cold-start
	// cost, republished under mu after the deploy and after every invoke,
	// so Handle.ColdStartMeanMs reads it without the lock.
	coldMeanMs atomic.Uint64
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

// modeList renders the allowed mode names for error messages.
func modeList() string {
	names := make([]string, len(isolation.Modes))
	for i, m := range isolation.Modes {
		names[i] = string(m)
	}
	return strings.Join(names, ", ")
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

// deploy constructs dep's platform (the cold start) with its own virtual
// timeline, kernel and physical-memory pool, unless it has one. A failed
// deploy drops the record, so the next request retries, /deployments never
// lists a dead entry and cached handles see ErrGone. s.mu under dep.mu is
// the one lock order: nothing locks a deployment while holding s.mu. Caller
// holds dep.mu.
func (s *Server) deploy(dep *deployment) error {
	if dep.gone {
		return ErrGone
	}
	if dep.platform != nil {
		return nil
	}
	pl, err := faas.NewPlatform(kernel.Default(), dep.prof, dep.mode, 1, dep.seed)
	if err != nil {
		s.mu.Lock()
		delete(s.deployments, dep.fn+"|"+string(dep.mode))
		s.mu.Unlock()
		dep.gone = true
		return fmt.Errorf("deploy %s under %s: %w", dep.fn, dep.mode, err)
	}
	pl.TrustSameCaller = dep.trust
	dep.platform = pl
	dep.publishColdMean()
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
	// virtual cost — the provider's scale-up bill.
	FullColdStarts      int     `json:"full_cold_starts"`
	CloneColdStarts     int     `json:"clone_cold_starts"`
	ColdStartTotalMS    float64 `json:"cold_start_total_ms"`
	CloneColdStartReady bool    `json:"clone_cold_start_ready"`

	// Latency summary over the most recent served requests (ms, windowed
	// like the fleet's observation rings).
	E2EMeanMS float64 `json:"e2e_mean_ms"`
	E2EP50MS  float64 `json:"e2e_p50_ms"`
	E2EP95MS  float64 `json:"e2e_p95_ms"`
	E2EP99MS  float64 `json:"e2e_p99_ms"`

	// Recovery counters (faas.RecoveryStats): how often this deployment's
	// failures were absorbed — cold-start retries, clone→pipeline
	// fallbacks, crashes, post-response restore faults, integrity
	// failures, quarantined templates. All zero on a fault-free platform.
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

// describe renders one deployment's listing entry, after settling any
// pending cleanup so the listing counts it. Caller holds dep.mu.
func (dep *deployment) describe() DeploymentInfo {
	_, _ = dep.settle() // a failure stays pending for the next Invoke to report
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
	info.ColdStartTotalMS = float64(cold.FullCost+cold.CloneCost) / 1e6
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
		PoolSize:        len(cs),
		CloneReady:      info.CloneColdStartReady,
		P95E2EMs:        info.E2EP95MS,
		ResidentPages:   mem.ResidentPages,
		StateStoreBytes: mem.StateStoreBytes,
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
