package main

import (
	"math"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/runtimes"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
)

// The four workloads. Every number here is the benchmark's own: profiles
// and rates are copied from the program's experiment drivers at the commit
// that defined the benchmark, not imported, so a later change to
// internal/experiments cannot move what the benchmark offers the program.

const (
	wlSimHead      = "sim-head"
	wlClusterChurn = "cluster-churn"
	wlLiveClosed   = "live-closed"
	wlLiveOpen     = "live-open"
)

// workloadWhy records why each workload exists; BENCHMARK.json carries the
// same text and registry_test.go holds the two together.
var workloadWhy = map[string]string{
	wlSimHead:      "fleet simulator on the microservice head: stable layouts keep every restore on the fast path, so runtimes.InvokeOn, vm.WriteWord and core.Restore->mem.CopyRun do ~90% of the work",
	wlClusterChurn: "4-host cluster on the Python tail with scale-to-zero, a host failure and a drain: most host time is scale-up (pipeline, snapshot, export, clone) plus the cluster's own dispatcher, placer and reaper",
	wlLiveClosed:   "2 binary-protocol connections back to back on atax (c) over TCP loopback: the invoke is about half the round trip, so framing, routing, admission, the lock hand-off and the socket dominate",
	wlLiveOpen:     "Poisson arrivals at 100 req/s on POST /fn/pyflate (p) over HTTP, timed from the due instant: an idle server woken per request, the HTTP plane, and a ~2 ms slow-path restore that is most of the latency",
}

var workloadOrder = []string{wlSimHead, wlClusterChurn, wlLiveClosed, wlLiveOpen}

// loadSpec is one function's offered load in a simulator workload.
type loadSpec struct {
	name   string           // catalog display name, or
	micro  runtimes.Profile // a synthetic profile when name is empty
	rate   float64
	burst  float64
	amp    float64
	period time.Duration
	phase  float64
}

func microProfile(name string, totalPages, dirtyPages int, execMS float64) runtimes.Profile {
	return runtimes.Profile{
		Name:         name,
		Lang:         runtimes.LangC,
		Exec:         sim.Duration(execMS * float64(time.Millisecond)),
		TotalPages:   totalPages,
		DirtyPages:   dirtyPages,
		UniformDirty: true,
	}
}

// simHeadMix is the microservice head of the million-request fleet
// benchmark: eight tiny C functions, 25 k req/s aggregate, four bursty and
// four diurnal with staggered peaks.
var simHeadMix = []loadSpec{
	{micro: microProfile("u-auth", 192, 5, 0.9), rate: 6000, burst: 4},
	{micro: microProfile("u-router", 160, 4, 0.7), rate: 5000, burst: 3},
	{micro: microProfile("u-thumb", 256, 8, 1.6), rate: 4000, burst: 4},
	{micro: microProfile("u-notify", 192, 6, 1.1), rate: 3000, burst: 2},
	{micro: microProfile("u-feed", 224, 7, 1.3), rate: 2500, amp: 0.8, period: 20 * time.Second},
	{micro: microProfile("u-cart", 192, 5, 1.0), rate: 2000, amp: 0.8, period: 20 * time.Second, phase: math.Pi / 2},
	{micro: microProfile("u-quote", 160, 4, 0.8), rate: 1500, amp: 0.7, period: 30 * time.Second, phase: math.Pi},
	{micro: microProfile("u-geo", 128, 4, 0.6), rate: 1000, amp: 0.6, period: 15 * time.Second, phase: 3 * math.Pi / 2},
}

// clusterChurnMix is the Python tail: low rates, churny layouts, so pools
// keep collapsing and rebuilding. The Node functions of the program's own
// tail (157 k-page images) are left out on purpose: a window holds only a
// handful of their cold starts, each worth ~5% of the window's host time,
// so their count alone moved a run's cost per request by ±4% from seed to
// seed and no bound could have been set.
var clusterChurnMix = []loadSpec{
	{name: "get-time (p)", rate: 120, burst: 3},
	{name: "version (p)", rate: 90, burst: 2},
	{name: "json (p)", rate: 45},
	{name: "float (p)", rate: 30},
	{name: "pickle (p)", rate: 20, burst: 2},
	{name: "telco (p)", rate: 20, burst: 2},
}

const (
	simHeadWindow       = 1500 * time.Millisecond
	simHeadContainers   = 64
	clusterChurnWindow  = 2 * time.Second
	clusterChurnHosts   = 4
	clusterChurnPoolCap = 8
	liveClosedFn        = "atax (c)"
	liveClosedConns     = 2
	liveClosedPerConn   = 6000
	liveClosedBody      = 512
	liveOpenFn          = "pyflate (p)"
	liveOpenRate        = 100.0
	liveOpenArrivals    = 100
	liveOpenWorkers     = 2
	liveOpenBody        = 512
	liveOpenBurst       = 100 // back-to-back requests per segment for the capacity figure
	liveWarmupRequests  = 200
	// The self-check's perturbations: every simulated profile this much
	// larger (pages mapped and pages written), and this share of the
	// measured CPU per request burnt inside the live serving path.
	profilePerturbation = 2.0
	spinPerturbation    = 1.0
)

// sizes is the fixed work of one segment and of one live bring-up.
type sizes struct {
	window   map[string]sim.Duration // simulated window per simulator workload
	perConn  int                     // live-closed: requests per connection per segment
	arrivals int                     // live-open: arrivals per segment
	burst    int                     // live-open: back-to-back requests per segment for the capacity figure
	warmup   int                     // live: warm-up requests after the first, cold one
	bringUps int                     // live: timed bring-ups per run (set-up is their median)
}

var fullSizes = sizes{
	window:  map[string]sim.Duration{wlSimHead: simHeadWindow, wlClusterChurn: clusterChurnWindow},
	perConn: liveClosedPerConn, arrivals: liveOpenArrivals, burst: liveOpenBurst, warmup: liveWarmupRequests, bringUps: 5,
}

// quickSizes is -quick: the same code paths at a size a test can afford;
// its numbers are not comparable with a full run's.
var quickSizes = sizes{
	window:  map[string]sim.Duration{wlSimHead: 200 * time.Millisecond, wlClusterChurn: 400 * time.Millisecond},
	perConn: 300, arrivals: 15, burst: 5, warmup: 20, bringUps: 2,
}

// representative is the function whose request each workload's ladder
// replays layer by layer.
var representative = map[string]string{
	wlSimHead:      "u-thumb",
	wlClusterChurn: "get-time (p)",
	wlLiveClosed:   liveClosedFn,
	wlLiveOpen:     liveOpenFn,
}

// loads resolves a mix into fleet loads. scale multiplies every profile's
// footprint and per-request write set (1 = as defined; the self-check's
// perturbed runs use profilePerturbation).
func loads(mix []loadSpec, scale float64) ([]trace.FunctionLoad, error) {
	out := make([]trace.FunctionLoad, 0, len(mix))
	for _, m := range mix {
		e := catalog.Entry{Prof: m.micro}
		if m.name != "" {
			var err error
			if e, err = catalog.Lookup(m.name); err != nil {
				return nil, err
			}
		}
		e.Prof.TotalPages = int(math.Round(float64(e.Prof.TotalPages) * scale))
		e.Prof.DirtyPages = int(math.Round(float64(e.Prof.DirtyPages) * scale))
		e.Prof.DropPages = int(math.Round(float64(e.Prof.DropPages) * scale))
		if err := e.Prof.Validate(); err != nil {
			return nil, err
		}
		out = append(out, trace.FunctionLoad{
			Entry:            e,
			RatePerSec:       m.rate,
			Burstiness:       m.burst,
			DiurnalAmplitude: m.amp,
			DiurnalPeriod:    sim.Duration(m.period),
			DiurnalPhase:     m.phase,
		})
	}
	return out, nil
}

// profileOf returns the profile the ladder replays for a workload.
func profileOf(name string) (runtimes.Profile, error) {
	for _, m := range simHeadMix {
		if m.micro.Name == name {
			return m.micro, nil
		}
	}
	e, err := catalog.Lookup(name)
	return e.Prof, err
}
