// Package trace simulates a multi-function FaaS fleet: several deployed
// functions, each with its own arrival process, dynamically scaled container
// pools with keep-alive expiry, cold starts on demand, and FIFO queueing
// when the pool is saturated.
//
// The paper motivates Groundhog with exactly this setting (§1-§2:
// multiplexed tenants, Azure-style short functions [39], idle capacity
// between requests); the fleet simulation quantifies what request isolation
// costs a *provider* — latency distributions, cold-start rates, restore
// counts, and memory — rather than a single benchmark container.
//
// The package owns the repository's only dispatcher: every run in which
// requests arrive on their own and queue for containers — fleets, clusters,
// the single-container load sweep of internal/experiments — goes through it
// (faas keeps only per-container drivers that never queue). Dispatcher is
// the loop itself — arrival processes, the per-function queue ring,
// peek-serve-pop dispatch, the policy-driven reaper, the observation
// signals, chains — written over a function's scan-ordered set of
// faas.Platform pools. Where those pools live and how one more container is
// obtained is the one thing it delegates, to a Provider (provider.go). Fleet
// is the Dispatcher on one shared kernel (one pool per function);
// internal/cluster is the same Dispatcher with one pool per host behind a
// placer and an image registry.
package trace

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/faas"
	"groundhog/internal/faults"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/metrics"
	"groundhog/internal/runtimes"
	"groundhog/internal/sim"
)

// FunctionLoad describes one deployed function's workload.
type FunctionLoad struct {
	Entry catalog.Entry
	// RatePerSec is the mean arrival rate. It may be zero only for a
	// function referenced by a Config.Chains stage: such a function serves
	// chain invocations and has no open-loop arrival process of its own.
	RatePerSec float64
	// Burstiness is the coefficient of variation of interarrival times:
	// 1 is Poisson; >1 produces bursts via a hyperexponential mixture
	// (Azure traces show highly bursty per-function arrivals [39]).
	Burstiness float64

	// DiurnalAmplitude and DiurnalPeriod modulate the arrival rate
	// sinusoidally around RatePerSec, as production FaaS traffic swings
	// between peak and trough hours: the instantaneous rate at offset t into
	// the window is RatePerSec * (1 + A*sin(2*pi*t/P + Phase)). Amplitude
	// must lie in [0, 1) — the rate stays positive — and modulation is armed
	// only when both amplitude and period are positive, so the zero value
	// leaves the arrival process exactly as before (stationary, and
	// bit-identical to loads predating these fields). DiurnalPhase shifts
	// the cycle (radians) so a mix of functions can peak at different times.
	DiurnalAmplitude float64
	DiurnalPeriod    sim.Duration
	DiurnalPhase     float64

	// Runtime is an optional packaging overlay (tinyFaaS's binary/python/
	// node split): the function's measured profile is deployed through
	// runtimes.RuntimeProfile.Apply, scaling its footprint and dirty rate
	// and lengthening its warm-up. The zero value applies nothing — the
	// deployed profile is byte-identical to Entry.Prof.
	Runtime runtimes.RuntimeProfile

	// Policy overrides the fleet's scaling policy for this function (nil
	// uses Config.Policy). A chain's stages can then hold warm capacity
	// selectively — e.g. an SLO-aware policy on the latency-critical stage
	// while the rest of the fleet scales to zero on fixed TTLs.
	Policy Policy
}

// Config parameterizes a fleet run.
type Config struct {
	Cost kernel.CostModel
	Mode isolation.Mode
	Seed uint64

	// MaxContainersPerFunction caps each function's pool.
	MaxContainersPerFunction int
	// KeepAlive is the idle TTL after which a warm container is reaped.
	KeepAlive sim.Duration
	// Window is the simulated duration.
	Window sim.Duration

	// CloneScaleOut routes scale-up through the snapshot-clone fast path
	// (faas.Platform.CloneScaleOut): after a function's first full cold
	// start, later containers are spawned from its snapshot image instead
	// of replaying the Fig. 1 pipeline. Modes without a snapshot (BASE,
	// fork) silently fall back to full cold starts.
	CloneScaleOut bool

	// ScaleToZeroAfter, when positive, lets the reaper take a function's
	// pool all the way to zero: once the last container has been idle
	// longer than this TTL (and the queue is empty), it is removed and the
	// deployment's exported snapshot image is evicted, returning its
	// materialized frames to the kernel. The next request pays a full cold
	// start (and, under CloneScaleOut, re-exports the image on the next
	// scale-up). Must be at least KeepAlive; zero keeps the warm floor
	// forever (the classic keep-alive policy). Only consulted when Policy
	// is nil.
	ScaleToZeroAfter sim.Duration

	// Policy is the fleet's scaling policy. Nil selects
	// FixedTTL{KeepAlive, ScaleToZeroAfter} — bit-compatible with the
	// classic two-tier reaper, so existing baselines hold. KeepAlive also
	// sets the policy tick cadence (KeepAlive/2) regardless of Policy.
	Policy Policy

	// SLOTargetMs is the p95 E2E target in milliseconds that SLO-aware
	// policies aim for, the same for every function (0 = no target).
	SLOTargetMs float64

	// SketchStats selects bounded-memory percentile sketches
	// (metrics.Sketch, 1% relative accuracy) for the per-function latency
	// recorders instead of the exact sample-retaining summaries. A
	// million-request fleet then holds a few thousand histogram buckets per
	// function rather than millions of float64 samples. Off by default:
	// exact summaries keep the committed benchmark baselines byte-identical
	// and give small-N experiment paths exact percentiles.
	SketchStats bool

	// Faults arms deterministic fault injection across every layer of the
	// fleet's stack — kernel spawn-from-image, core export/restore, faas
	// cold starts and requests (see internal/faults). The zero Plan leaves
	// every seam disarmed: the run is bit-identical to a fleet without this
	// field.
	Faults faults.Plan

	// Events schedules fleet-level failure events at fixed offsets into the
	// window — container-crash waves, image corruption, drains. Events are
	// independent of the fault plan: they fire even on a disarmed fleet.
	Events []Event

	// Chains adds composed workloads: each Chain has its own arrival
	// process, and every arrival walks the chain's stages, dispatched
	// stage-by-stage on completion events. Empty leaves the fleet's
	// behavior exactly as before the field existed.
	Chains []Chain
}

// ChainStage is one stage of a Chain: the function invocations it fans out
// to, all dispatched in parallel at the instant the previous stage
// completed. The stage completes when its last invocation's response
// completes. A function may appear more than once to be invoked twice.
type ChainStage struct {
	Functions []string
}

// Chain is a composed request — an ordered pipeline of stages over the
// fleet's deployed functions, tinyFaaS-style function composition. Each
// arrival invokes stage 0; every later stage starts on the completion event
// of the one before it, so queueing and cold starts anywhere in the
// pipeline stretch the whole chain. The end-to-end SLO spans the chain:
// ChainStats.E2E records first-arrival to last-completion.
//
// Chain invocations flow through the same per-function queues, pools, and
// stats as open-loop arrivals — a stage invocation counts in its function's
// Arrived/Requests, so the fleet's no-lost-request invariant extends to
// every stage, and a chain can therefore never be *partially* lost.
type Chain struct {
	// Name labels the chain in results.
	Name string
	// Stages are executed in order; each names at least one function from
	// the fleet's loads.
	Stages []ChainStage
	// RatePerSec and Burstiness shape the chain's own arrival process,
	// exactly as FunctionLoad's fields do.
	RatePerSec float64
	Burstiness float64
	// SLOTargetMs is the end-to-end target for the whole chain in
	// milliseconds (0 = no target). ChainStats.SLOMet judges the chain's
	// p95 against it after the run.
	SLOTargetMs float64
}

// Validate checks one chain's shape (function-name resolution happens in
// NewFleet, where the loads are known).
func (ch Chain) Validate() error {
	if ch.Name == "" {
		return fmt.Errorf("trace: chain with empty name")
	}
	if len(ch.Stages) == 0 {
		return fmt.Errorf("trace: chain %s: no stages", ch.Name)
	}
	for i, st := range ch.Stages {
		if len(st.Functions) == 0 {
			return fmt.Errorf("trace: chain %s: stage %d has no functions", ch.Name, i)
		}
	}
	if ch.RatePerSec <= 0 {
		return fmt.Errorf("trace: chain %s: non-positive rate", ch.Name)
	}
	if ch.Burstiness < 0 {
		return fmt.Errorf("trace: chain %s: negative burstiness", ch.Name)
	}
	if ch.SLOTargetMs < 0 {
		return fmt.Errorf("trace: chain %s: negative SLO target", ch.Name)
	}
	return nil
}

// ChainStats aggregates one chain's outcomes.
type ChainStats struct {
	Name string
	// Started counts chain arrivals; Completed counts chains whose final
	// stage completed. After the drain every started chain has run to
	// completion — requests are delayed by faults, never dropped — so
	// Lost (= Started − Completed) is pinned at zero: the
	// chain-conservation invariant.
	Started   int
	Completed int
	Lost      int
	// SLOTargetMs echoes the configured end-to-end target; SLOMet reports
	// whether the chain's p95 E2E met it (true when no target is set).
	SLOTargetMs float64
	SLOMet      bool
	// E2E records each completed chain's first-arrival-to-last-completion
	// latency in milliseconds. Completion times are virtual response
	// completions (faas.RequestStats.Completed) — per-function E2E
	// additionally includes the platform-path overhead, which does not
	// delay the next stage's dispatch.
	E2E metrics.Recorder
}

// EventKind selects a fleet failure event.
type EventKind string

// The fleet failure events.
const (
	// EventCrashWave kills every container at once (a host-level
	// incident); queued and future requests recover through cold starts.
	EventCrashWave EventKind = "crash-wave"
	// EventCorruptImage marks every function's exported snapshot images
	// corrupted; the next clone attempt detects the checksum
	// mismatch, evicts the image, and falls back to the full pipeline.
	EventCorruptImage EventKind = "corrupt-image"
	// EventDrain gracefully removes every container and evicts the
	// images (host maintenance); the pools rebuild on demand.
	EventDrain EventKind = "drain"
)

// Event is one scheduled fleet failure.
type Event struct {
	// At is the event's offset into the window (0 <= At < Window).
	At sim.Duration
	// Kind selects the failure; it strikes every function.
	Kind EventKind
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MaxContainersPerFunction < 1 {
		return fmt.Errorf("trace: need at least one container per function")
	}
	if c.Window <= 0 {
		return fmt.Errorf("trace: non-positive window")
	}
	if c.KeepAlive/2 <= 0 {
		// The policy tick recurs every KeepAlive/2; a zero period would
		// re-fire at one instant forever.
		return fmt.Errorf("trace: keep-alive %v leaves no policy tick period", c.KeepAlive)
	}
	if err := (FixedTTL{KeepAlive: c.KeepAlive, ScaleToZeroAfter: c.ScaleToZeroAfter}).validate(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if c.SLOTargetMs < 0 {
		return fmt.Errorf("trace: negative SLO target")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	for _, ev := range c.Events {
		if ev.At < 0 || sim.Time(ev.At) >= sim.Time(c.Window) {
			return fmt.Errorf("trace: event %q at %v outside the window", ev.Kind, ev.At)
		}
		switch ev.Kind {
		case EventCrashWave, EventCorruptImage, EventDrain:
		default:
			return fmt.Errorf("trace: unknown event kind %q", ev.Kind)
		}
	}
	seen := map[string]bool{}
	for _, ch := range c.Chains {
		if err := ch.Validate(); err != nil {
			return err
		}
		if seen[ch.Name] {
			return fmt.Errorf("trace: duplicate chain %s", ch.Name)
		}
		seen[ch.Name] = true
	}
	return nil
}

// FunctionStats aggregates one function's outcomes.
type FunctionStats struct {
	Name string
	// Arrived counts every request that entered the queue; after the drain,
	// Arrived == Requests is the no-request-silently-dropped invariant —
	// crashes and cold-start faults delay requests, they never lose them.
	Arrived  int
	Requests int
	// ColdStarts counts every scale-up (FullColdStarts + CloneColdStarts).
	ColdStarts int
	// FullColdStarts ran the complete Fig. 1 pipeline; CloneColdStarts took
	// the snapshot-clone fast path (Config.CloneScaleOut).
	FullColdStarts  int
	CloneColdStarts int
	// ColdStartCost is the summed virtual cost of all cold starts — the
	// provider's total scale-up bill for this function.
	ColdStartCost sim.Duration
	Restores      int
	Reaped        int
	// ScaledToZero counts the times the reaper took the pool to zero;
	// ImagesEvicted counts the exported snapshot images actually released —
	// at scale-to-zero, or at a later policy tick once a kept image stops
	// paying for itself.
	ScaledToZero  int
	ImagesEvicted int

	// Recovery sums the function's pools' failure-recovery counters after
	// the drain (all zero on a fault-free run). A crashed request was
	// retried on another container; a restore fault lost the container
	// after its response was delivered.
	Recovery faas.RecoveryStats
	// EventCrashes and Drained count containers removed by scheduled
	// crash-wave and drain events.
	EventCrashes int
	Drained      int

	// StateGets and StatePuts total the function's external state-store
	// operations (zero unless the profile declares state traffic; their
	// virtual cost is already inside the latency recorders).
	StateGets int
	StatePuts int

	// E2E (ms, including queueing and cold-start waits) and Queue (ms
	// waiting for a container) record every request's latency. The
	// recorders are exact sample-retaining summaries by default, or
	// bounded-memory sketches under Config.SketchStats; NewFleet
	// initializes them — a zero FunctionStats has nil recorders.
	E2E   metrics.Recorder
	Queue metrics.Recorder
}

// newRecorder returns a latency recorder per the Config.SketchStats
// selection: a bounded-memory sketch, or the exact sample-retaining summary.
func newRecorder(sketch bool) metrics.Recorder {
	if sketch {
		return metrics.NewSketch(0)
	}
	return &metrics.Summary{}
}

// newFunctionStats builds a FunctionStats with its latency recorders
// initialized.
func newFunctionStats(name string, sketch bool) *FunctionStats {
	return &FunctionStats{
		Name:  name,
		E2E:   newRecorder(sketch),
		Queue: newRecorder(sketch),
	}
}

// Result is a fleet run's outcome.
type Result struct {
	PerFunction []*FunctionStats
	// Chains holds one entry per configured chain (sorted by name; empty
	// without Config.Chains).
	Chains []*ChainStats
	// PeakFrames is the kernel-wide high-water mark of resident frames — a
	// direct memory-pressure comparison between isolation modes.
	PeakFrames int
	// EndFrames is the kernel-wide frame count after the drain — with
	// scale-to-zero it shows evicted deployments actually returning their
	// memory.
	EndFrames int
	// MeanFrames is the time-weighted mean of in-use frames over the
	// window, sampled at policy ticks — the fleet's memory bill, and the
	// figure scale-to-zero policies actually lower (PeakFrames barely
	// moves when pools collapse only between bursts).
	MeanFrames float64
}

// arrivalWindow and latencyWindow bound the policy signals' observation
// rings: arrival timestamps for the rate estimate, latency samples for the
// mean/p95 and service-time signals. Windowing keeps the estimators
// current — a breach (or a calm spell) ages out instead of latching for
// the rest of the run — and bounds the per-decision sort cost.
const (
	arrivalWindow = 64
	latencyWindow = 128
)

// dispatchRetryBase and dispatchRetryMax bound the dispatcher's backoff when
// a scale-up fails even after the platform's own retry budget: the queue is
// held and re-dispatched later rather than the fleet erroring out.
const (
	dispatchRetryBase = 20 * time.Millisecond
	dispatchRetryMax  = 500 * time.Millisecond
)

// retryDispatchDelay is the dispatcher's exponential backoff schedule for
// consecutive failed scale-ups.
func retryDispatchDelay(streak int) sim.Duration {
	d := sim.Duration(dispatchRetryBase)
	for i := 1; i < streak; i++ {
		d *= 2
		if d >= sim.Duration(dispatchRetryMax) {
			return sim.Duration(dispatchRetryMax)
		}
	}
	return d
}

// queuedReq is one waiting request: its arrival time plus, for a chain
// stage invocation, the chain run it advances on completion (nil for
// open-loop arrivals, which need no completion tracking).
type queuedReq struct {
	at  sim.Time
	run *chainRun
}

// fnState is the dispatcher's view of one deployed function.
type fnState struct {
	// index is the function's position in the loads (the Provider's handle).
	index int
	load  FunctionLoad
	// pools is the function's container pools in scan order, exactly as
	// Provider.Deploy returned them: one on a Fleet; on a cluster one slot
	// per host, nil until the first placement there. Every loop below skips
	// nil slots and otherwise treats the pools as one pool.
	pools []*faas.Platform
	// policy is the function's resolved scaling policy (the load's
	// override, else the fleet's); signalFree caches whether it is a
	// FixedTTL, whose decisions ignore the signals, so the dispatcher skips
	// maintaining the observation rings for this function.
	policy     Policy
	signalFree bool
	// queue is a head-indexed ring of waiting requests: dequeue advances
	// qhead instead of re-slicing the front away, so the backing array is
	// reused forever and steady-state queueing allocates nothing (enqueue
	// compacts to the front only when the array is full).
	queue []queuedReq
	qhead int
	stats *FunctionStats
	rng   *sim.Rand
	// redispatch is the cached "drain my queue" closure scheduled on every
	// container-ready and retry event — one allocation per function instead
	// of one per scheduled dispatch.
	redispatch func()
	// arrivalTimes is a drop-oldest ring of recent arrival timestamps; the
	// policy's rate estimate is its population over its span to now, so a
	// deployment whose traffic stopped sees its rate decay.
	arrivalTimes []sim.Time
	// recentE2E and recentSvc are drop-oldest rings of recent per-request
	// E2E (queueing included) and invoker service times in milliseconds —
	// the windowed latency signals.
	recentE2E []float64
	recentSvc []float64
	// coldFailStreak counts consecutive failed scale-ups; it drives the
	// dispatcher's backoff and resets on the first success.
	coldFailStreak int
	// fullColdMs and cloneColdMs sum the two cold-start paths' durations
	// (ms) in scale-up order; over FullColdStarts and CloneColdStarts they
	// are the signals' mean cold starts.
	fullColdMs  float64
	cloneColdMs float64
}

// observeArrival records one arrival timestamp in the rate ring.
func (fs *fnState) observeArrival(t sim.Time) {
	fs.arrivalTimes = metrics.PushBounded(fs.arrivalTimes, t, arrivalWindow)
}

// observeLatency records one served request's E2E and service time (ms).
func (fs *fnState) observeLatency(e2eMs, svcMs float64) {
	fs.recentE2E = metrics.PushBounded(fs.recentE2E, e2eMs, latencyWindow)
	fs.recentSvc = metrics.PushBounded(fs.recentSvc, svcMs, latencyWindow)
}

// queueDepth reports the number of requests waiting for a container.
func (fs *fnState) queueDepth() int { return len(fs.queue) - fs.qhead }

// containers is the function's pool size, summed over its pools.
func (fs *fnState) containers() int {
	n := 0
	for _, pl := range fs.pools {
		if pl != nil {
			n += len(pl.Containers())
		}
	}
	return n
}

// evictImage drops one pool's snapshot image, counting it only when an
// image was actually released.
func (fs *fnState) evictImage(pl *faas.Platform) {
	if pl.EvictImage() {
		fs.stats.ImagesEvicted++
	}
}

// evictImages drops the function's snapshot image on every pool holding one.
func (fs *fnState) evictImages() {
	for _, pl := range fs.pools {
		if pl != nil {
			fs.evictImage(pl)
		}
	}
}

// enqueue appends one request to the queue ring.
func (fs *fnState) enqueue(q queuedReq) {
	if fs.qhead > 0 && len(fs.queue) == cap(fs.queue) {
		n := copy(fs.queue, fs.queue[fs.qhead:])
		fs.queue = fs.queue[:n]
		fs.qhead = 0
	}
	fs.queue = append(fs.queue, q)
}

// queueHead returns the oldest waiting request; the queue must be nonempty.
func (fs *fnState) queueHead() queuedReq { return fs.queue[fs.qhead] }

// dequeue consumes the head; an emptied ring rewinds to reuse its storage.
func (fs *fnState) dequeue() {
	fs.qhead++
	if fs.qhead == len(fs.queue) {
		fs.queue = fs.queue[:0]
		fs.qhead = 0
	}
}

// chainState is the dispatcher's view of one configured chain: its arrival
// process (a synthetic FunctionLoad reusing the shared interarrival draw)
// and its stages resolved to function states.
type chainState struct {
	load   FunctionLoad
	stats  *ChainStats
	rng    *sim.Rand
	stages [][]*fnState
}

// newChainStats builds a ChainStats with its recorder initialized.
func newChainStats(ch Chain, sketch bool) *ChainStats {
	return &ChainStats{Name: ch.Name, SLOTargetMs: ch.SLOTargetMs, E2E: newRecorder(sketch)}
}

// chainRun is one in-flight chain arrival: which stage it is in and how
// many of that stage's invocations are still outstanding.
type chainRun struct {
	cs      *chainState
	started sim.Time
	stage   int
	pending int
}

// startChainStage fans the run's current stage out into the target
// functions' queues at the current virtual time and dispatches them. Stage
// invocations are ordinary requests to the per-function machinery — they
// count in Arrived/Requests, ride the same queue ring, and retry on crashes
// — plus a completion hook that advances the chain.
func (d *Dispatcher) startChainStage(run *chainRun) {
	targets := run.cs.stages[run.stage]
	run.pending = len(targets)
	now := d.engine.Now()
	for _, fs := range targets {
		d.admit(fs, queuedReq{at: now, run: run})
	}
}

// admit is one request entering a function's queue — an open-loop arrival
// or a chain stage invocation — followed by a dispatch pass.
func (d *Dispatcher) admit(fs *fnState, q queuedReq) {
	if !fs.signalFree {
		fs.observeArrival(q.at)
	}
	fs.stats.Arrived++
	fs.enqueue(q)
	d.dispatch(fs)
}

// startArrivals runs one arrival process until the deadline: gaps drawn from
// load on rng (drawInterarrival — the draw the standalone ArrivalProcess
// shares, so the two stay draw-for-draw identical), arrived called at each.
func (d *Dispatcher) startArrivals(load FunctionLoad, rng *sim.Rand, deadline sim.Time, arrived func(now sim.Time)) {
	var arrive func()
	arrive = func() {
		now := d.engine.Now()
		if d.err != nil || now >= deadline {
			return
		}
		arrived(now)
		d.engine.After(drawInterarrival(load, rng, now), arrive)
	}
	d.engine.After(drawInterarrival(load, rng, 0), arrive)
}

// chainStepDone is the completion event of one stage invocation: when the
// stage's last invocation completes, the next stage starts at that instant,
// and a finished chain records its end-to-end latency. Every started chain
// reaches exactly one of these terminal states or remains queued — the
// drain serves all queues, so after Run every chain has completed and
// ChainStats.Lost stays zero (the conservation invariant).
func (d *Dispatcher) chainStepDone(run *chainRun) {
	run.pending--
	if run.pending > 0 {
		return
	}
	run.stage++
	if run.stage < len(run.cs.stages) {
		d.startChainStage(run)
		return
	}
	st := run.cs.stats
	st.Completed++
	st.E2E.AddDuration(d.engine.Now().Sub(run.started))
}

// Dispatcher is the fleet loop: it runs a multi-function workload over the
// pools its Provider deploys and reports per-function and fleet-wide
// outcomes. Fleet wraps it for the one-kernel case; internal/cluster drives
// it over N hosts.
type Dispatcher struct {
	cfg    Config
	engine *sim.Engine
	prov   Provider
	fns    []*fnState
	chains []*chainState
	err    error

	// frameArea integrates in-use frames over virtual time (sampled at
	// policy ticks); lastSample is the integration cursor and peakFrames
	// the samples' high-water mark.
	frameArea  float64
	lastSample sim.Time
	peakFrames int

	// p95Scratch is the reused sorted copy behind the per-tick P95E2EMs
	// signal — one buffer for the whole fleet instead of a fresh
	// slice-and-Summary pair per function per tick.
	p95Scratch []float64
}

// NewDispatcher validates the configuration and the loads (the one load
// validation every front end shares) and deploys each function through prov,
// in load order, on the given engine — the engine the provider's platforms
// must also run on.
func NewDispatcher(engine *sim.Engine, cfg Config, loads []FunctionLoad, prov Provider) (*Dispatcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("trace: no functions")
	}
	d := &Dispatcher{cfg: cfg, engine: engine, prov: prov}
	// The fleet-wide default policy; a load's own Policy overrides it.
	fleetPolicy := cfg.Policy
	if fleetPolicy == nil {
		fleetPolicy = FixedTTL{KeepAlive: cfg.KeepAlive, ScaleToZeroAfter: cfg.ScaleToZeroAfter}
	}
	// chainFed marks functions referenced by a chain stage: they may omit
	// their own open-loop arrival process (RatePerSec == 0).
	chainFed := map[string]bool{}
	for _, ch := range cfg.Chains {
		for _, st := range ch.Stages {
			for _, name := range st.Functions {
				chainFed[name] = true
			}
		}
	}
	for i, load := range loads {
		name := load.Entry.Prof.DisplayName()
		if load.RatePerSec < 0 || (load.RatePerSec == 0 && !chainFed[name]) {
			return nil, fmt.Errorf("trace: %s: non-positive rate", name)
		}
		if load.DiurnalAmplitude < 0 || load.DiurnalAmplitude >= 1 {
			return nil, fmt.Errorf("trace: %s: diurnal amplitude %v outside [0, 1)", name, load.DiurnalAmplitude)
		}
		if load.DiurnalAmplitude > 0 && load.DiurnalPeriod <= 0 {
			return nil, fmt.Errorf("trace: %s: diurnal amplitude needs a positive period", name)
		}
		if err := load.Runtime.Validate(); err != nil {
			return nil, fmt.Errorf("trace: %s: %w", name, err)
		}
		policy := fleetPolicy
		if load.Policy != nil {
			policy = load.Policy
		}
		ttl, signalFree := policy.(FixedTTL)
		if err := ttl.validate(); signalFree && err != nil {
			return nil, fmt.Errorf("trace: %s: %w", name, err)
		}
		// The deployed profile is the measured one through the runtime
		// overlay — a zero overlay returns it unchanged, byte for byte.
		pools, err := prov.Deploy(i, load.Runtime.Apply(load.Entry.Prof), cfg.Seed+uint64(i)*7919)
		if err != nil {
			return nil, err
		}
		fs := &fnState{
			index:      i,
			load:       load,
			pools:      pools,
			policy:     policy,
			signalFree: signalFree,
			stats:      newFunctionStats(name, cfg.SketchStats),
			rng:        sim.NewRand(cfg.Seed ^ uint64(i)*0x9E3779B97F4A7C15),
		}
		fs.redispatch = func() { d.dispatch(fs) }
		d.fns = append(d.fns, fs)
	}
	// Resolve each chain's stage targets against the deployed functions.
	// Chains draw arrivals on their own streams, seeded apart from the
	// functions' (the 0x5D1E... salt), so adding a chain never perturbs
	// the open-loop arrival traces.
	for ci, ch := range cfg.Chains {
		cs := &chainState{
			load:  FunctionLoad{RatePerSec: ch.RatePerSec, Burstiness: ch.Burstiness},
			stats: newChainStats(ch, cfg.SketchStats),
			rng:   sim.NewRand(cfg.Seed ^ (uint64(ci)+1)*0x5D1E8F96A331_7F4B),
		}
		for _, st := range ch.Stages {
			var targets []*fnState
			for _, name := range st.Functions {
				fs := d.fn(name)
				if fs == nil {
					return nil, fmt.Errorf("trace: chain %s references unknown function %q", ch.Name, name)
				}
				targets = append(targets, fs)
			}
			cs.stages = append(cs.stages, targets)
		}
		d.chains = append(d.chains, cs)
	}
	return d, nil
}

// fn returns the state of the function with the given display name, or nil.
func (d *Dispatcher) fn(name string) *fnState {
	for _, fs := range d.fns {
		if fs.stats.Name == name {
			return fs
		}
	}
	return nil
}

// signals assembles the policy's observation set for one function at the
// current virtual time, over all of its pools: pool size, warming count and
// the two memory figures sum, CloneReady holds if any pool can clone.
// Percentiles are computed on copies — reading a signal must never
// disturb the stats the fleet is still accumulating. A FixedTTL gets only
// the scheduling fields: its decisions ignore the rest.
func (d *Dispatcher) signals(fs *fnState, now sim.Time) Signals {
	sig := Signals{
		QueueDepth:  fs.queueDepth(),
		SLOTargetMs: d.cfg.SLOTargetMs,
	}
	for _, pl := range fs.pools {
		if pl == nil {
			continue
		}
		cs := pl.Containers()
		sig.PoolSize += len(cs)
		for _, c := range cs {
			if c.Ready() > now && c.Requests() == 0 {
				sig.Warming++
			}
		}
	}
	if fs.signalFree {
		return sig
	}
	for _, pl := range fs.pools {
		if pl == nil {
			continue
		}
		sig.CloneReady = sig.CloneReady || pl.CloneSourceReady()
		pages, store := pl.Footprint()
		sig.ResidentPages += pages
		sig.StateStoreBytes += store
	}
	if n := len(fs.arrivalTimes); n > 0 {
		if span := now.Sub(fs.arrivalTimes[0]); span > 0 {
			sig.ArrivalRatePerSec = float64(n) / span.Seconds()
		}
	}
	if n := fs.stats.FullColdStarts; n > 0 {
		sig.MeanFullColdMs = fs.fullColdMs / float64(n)
	}
	if n := fs.stats.CloneColdStarts; n > 0 {
		sig.MeanCloneColdMs = fs.cloneColdMs / float64(n)
	}
	if len(fs.recentE2E) > 0 {
		// One reused scratch buffer stands in for a fresh slice-and-Summary
		// pair per function per tick: the sort and interpolation reproduce
		// Summary.Percentile exactly (PercentileSorted is its implementation).
		d.p95Scratch = append(d.p95Scratch[:0], fs.recentE2E...)
		sort.Float64s(d.p95Scratch)
		sig.P95E2EMs = metrics.PercentileSorted(d.p95Scratch, 95)
		var svc float64
		for _, v := range fs.recentSvc {
			svc += v
		}
		sig.MeanServiceMs = svc / float64(len(fs.recentSvc))
	}
	return sig
}

// Run executes the configured window and returns the results.
// Result.PeakFrames is the high-water mark of the policy-tick frame samples
// (the provider's pools may span several physical memories, whose exact
// peaks need not align in time); Fleet.Run replaces it with its one
// kernel's exact figure.
func (d *Dispatcher) Run() (*Result, error) {
	deadline := sim.Time(d.cfg.Window)

	// Arrival processes (chain-fed functions with no rate of their own
	// receive only chain invocations).
	for _, fs := range d.fns {
		if fs.load.RatePerSec > 0 {
			d.startArrivals(fs.load, fs.rng, deadline, func(now sim.Time) {
				d.admit(fs, queuedReq{at: now})
			})
		}
	}

	// Chain arrival processes: each arrival starts stage 0 immediately;
	// later stages ride completion events (chainStepDone), including
	// through the drain — a chain started before the deadline always runs
	// to completion.
	for _, cs := range d.chains {
		d.startArrivals(cs.load, cs.rng, deadline, func(now sim.Time) {
			cs.stats.Started++
			d.startChainStage(&chainRun{cs: cs, started: now})
		})
	}

	// Scheduled failure events.
	for _, ev := range d.cfg.Events {
		d.engine.At(sim.Time(ev.At), func() { d.applyEvent(ev) })
	}

	// Policy tick: sample the frame integral, then let the policy reap.
	var reap func()
	reap = func() {
		if d.err != nil || d.engine.Now() >= deadline {
			return
		}
		now := d.engine.Now()
		d.sampleFrames(now, deadline)
		for _, fs := range d.fns {
			d.reapIdle(fs, now)
		}
		d.engine.After(d.cfg.KeepAlive/2, reap)
	}
	d.engine.After(d.cfg.KeepAlive/2, reap)

	d.engine.RunUntil(deadline)
	d.sampleFrames(deadline, deadline) // close the frame integral at the deadline
	// Drain: let in-flight requests finish (no new arrivals).
	d.engine.Run()
	if d.err != nil {
		return nil, d.err
	}

	res := &Result{PeakFrames: d.peakFrames, EndFrames: d.prov.FramesInUse()}
	if deadline > 0 {
		res.MeanFrames = d.frameArea / float64(deadline)
	}
	for _, fs := range d.fns {
		for _, pl := range fs.pools {
			if pl == nil {
				continue
			}
			rec, sum := pl.Recovery(), &fs.stats.Recovery
			sum.ColdStartRetries += rec.ColdStartRetries
			sum.RetryBackoff += rec.RetryBackoff
			sum.CloneFallbacks += rec.CloneFallbacks
			sum.Crashes += rec.Crashes
			sum.RestoreFaults += rec.RestoreFaults
			sum.ImageIntegrityFailures += rec.ImageIntegrityFailures
			sum.DonorsQuarantined += rec.DonorsQuarantined
		}
		res.PerFunction = append(res.PerFunction, fs.stats)
	}
	sort.Slice(res.PerFunction, func(i, j int) bool {
		return res.PerFunction[i].Name < res.PerFunction[j].Name
	})
	for _, cs := range d.chains {
		st := cs.stats
		st.Lost = st.Started - st.Completed
		st.SLOMet = st.SLOTargetMs <= 0 || st.E2E.N() == 0 || st.E2E.Percentile(95) <= st.SLOTargetMs
		res.Chains = append(res.Chains, st)
	}
	sort.Slice(res.Chains, func(i, j int) bool { return res.Chains[i].Name < res.Chains[j].Name })
	return res, nil
}

// sampleFrames advances the frame-seconds integral to now (clamped to the
// deadline: the mean is defined over the window, not the drain) and the
// sampled peak.
func (d *Dispatcher) sampleFrames(now, deadline sim.Time) {
	if now > deadline {
		now = deadline
	}
	inUse := d.prov.FramesInUse()
	if inUse > d.peakFrames {
		d.peakFrames = inUse
	}
	if dt := float64(now - d.lastSample); dt > 0 {
		d.frameArea += float64(inUse) * dt
		d.lastSample = now
	}
}

// reapIdle applies the function's resolved policy to its pools, taken
// together as one pool scanned in order.
//
// Tier one: containers above the policy's warm floor are removed when
// Policy.Reap says so, given their idle time. The pools are re-read after
// every removal — faas.Platform.RemoveContainer compacts the live slice in
// place, so ranging over a pre-reap snapshot would visit shifted (and stale
// duplicate) entries and over-count removals.
//
// Tier two (scale-to-zero): with no queued requests, the last container is
// removed when Policy.Reap(last=true) says so. Policy.EvictImage then
// decides whether the deployment's snapshot images go too — on every pool.
// A kept clone template outlives the last container, so the next scale-up
// revives the function at clone cost instead of replaying the pipeline.
//
// In tier one a container that never served measures idleness from
// Ready() — the time it became able to serve. An orphaned scale-up (its
// queued request drained elsewhere during the cold start) would otherwise
// pin the pool above the floor forever and block scale-to-zero. Tier two
// measures from Ready() always, which is never earlier than the last
// response's completion.
func (d *Dispatcher) reapIdle(fs *fnState, now sim.Time) {
	sig := d.signals(fs, now)
	floor := fs.policy.WarmFloor(sig)
	if floor < 1 {
		floor = 1 // the last container belongs to the scale-to-zero tier
	}
	for fs.containers() > floor {
		removed := false
	scan:
		for _, pl := range fs.pools {
			if pl == nil {
				continue
			}
			for _, c := range pl.Containers() {
				if c.Ready() > now {
					continue // busy (or still cold-starting)
				}
				idleSince := c.LastDone()
				if idleSince == 0 {
					idleSince = c.Ready() // never served: idle since serveable
				}
				if fs.policy.Reap(sig, now.Sub(idleSince), false) {
					pl.RemoveContainer(c)
					fs.stats.Reaped++
					// Refresh the whole observation set: a half-updated
					// snapshot (new pool size, old memory figures) would
					// skew per-container rent for the next decision.
					sig = d.signals(fs, now)
					removed = true
					break scan // re-read the pools; the slice just changed under us
				}
			}
		}
		if !removed {
			return
		}
	}

	if fs.queueDepth() > 0 || floor > 1 {
		return
	}
	total := fs.containers()
	if total == 0 {
		// Already scaled to zero with images kept: re-consult the eviction
		// verdict every tick. The rate estimate decays after traffic stops,
		// so a "keep" made mid-traffic must be allowed to flip once holding
		// the images no longer pays.
		if fs.policy.EvictImage(sig) {
			fs.evictImages()
		}
		return
	}
	if total != 1 {
		return
	}
	// With one container left, the first ready one is it — or it is busy.
	last, lastPool := pickReady(fs, now)
	if last == nil || !fs.policy.Reap(sig, now.Sub(last.Ready()), true) {
		return
	}
	evict := fs.policy.EvictImage(sig)
	lastPool.RemoveContainer(last)
	fs.stats.Reaped++
	fs.stats.ScaledToZero++
	if evict {
		fs.evictImages()
	}
}

// dispatch hands queued requests to available containers on any of the
// function's pools, scaling up through the Provider (with a cold start) when
// all are busy and the cap allows.
func (d *Dispatcher) dispatch(fs *fnState) {
	if d.err != nil {
		return
	}
	now := d.engine.Now()
	for fs.queueDepth() > 0 {
		c, pl := pickReady(fs, now)
		if c == nil {
			// No container free right now: ask the policy how many to add
			// (clamped to the pool's headroom). Each added container brings
			// its own wake-up at its Ready(); a pass that added none waits
			// for the pools' earliest ready time — one pass per instant.
			added := false
			pool := fs.containers()
			if headroom := d.cfg.MaxContainersPerFunction - pool; headroom > 0 {
				n := fs.policy.ScaleUp(d.signals(fs, now))
				if n > headroom {
					n = headroom
				}
				if n < 1 && pool == 0 {
					n = 1 // an empty pool must scale or the queue starves
				}
				for i := 0; i < n; i++ {
					nc, err := d.prov.ScaleUp(fs.index, now)
					if err != nil {
						if faas.IsTransient(err) {
							// The platform's own retry budget is already
							// spent; hold the queue and re-dispatch after a
							// backoff instead of killing the fleet — faults
							// delay requests, they must not drop them.
							fs.coldFailStreak++
							d.engine.After(retryDispatchDelay(fs.coldFailStreak), fs.redispatch)
							return
						}
						d.err = err
						d.engine.Stop()
						return
					}
					fs.coldFailStreak = 0
					cold := nc.ColdStart()
					fs.stats.ColdStarts++
					fs.stats.ColdStartCost += cold.Total
					ms := float64(cold.Total) / float64(time.Millisecond)
					if cold.ClonedFrom >= 0 {
						fs.stats.CloneColdStarts++
						fs.cloneColdMs += ms
					} else {
						fs.stats.FullColdStarts++
						fs.fullColdMs += ms
					}
					d.engine.At(nc.Ready(), fs.redispatch)
					added = true
				}
			}
			if !added {
				if next := earliestReady(fs); next > now {
					d.engine.At(next, fs.redispatch)
				}
			}
			return
		}
		// Peek, serve, then pop: a mid-request crash leaves the request at
		// the head of the queue to retry on another container (or a fresh
		// cold start) — it is only consumed once a response was delivered.
		qr := fs.queueHead()
		st, err := pl.Serve(c, "")
		if err != nil {
			if errors.Is(err, faas.ErrContainerCrashed) {
				continue
			}
			d.err = err
			d.engine.Stop()
			return
		}
		fs.dequeue()
		wait := now.Sub(qr.at)
		fs.stats.Requests++
		fs.stats.E2E.AddDuration(st.E2E + wait)
		fs.stats.Queue.AddDuration(wait)
		fs.stats.StateGets += st.StateGets
		fs.stats.StatePuts += st.StatePuts
		if !fs.signalFree {
			fs.observeLatency(float64(st.E2E+wait)/1e6, float64(st.Invoker)/1e6)
		}
		if st.Restored {
			fs.stats.Restores++
		}
		if run := qr.run; run != nil {
			// Chain requests hand off to the next stage when the response is
			// delivered; the closure is the only allocation on the chain path.
			d.engine.At(st.Completed, func() { d.chainStepDone(run) })
		}
		// When this container frees up, it may drain more queue.
		d.engine.At(st.ReadyAgain, fs.redispatch)
	}
}

// DispatchAll re-dispatches every function's queue at the current virtual
// time — what a provider calls after it took pools away (a host failed), so
// displaced queues start their recovery at the event, not the next arrival.
func (d *Dispatcher) DispatchAll() {
	for _, fs := range d.fns {
		d.dispatch(fs)
	}
}

// emptyPool removes every container of one of fs's pools, accounting them
// as crashed (EventCrashes) or drained.
func emptyPool(fs *fnState, pl *faas.Platform, crashed bool) {
	n := len(pl.Containers())
	for len(pl.Containers()) > 0 {
		pl.RemoveContainer(pl.Containers()[0])
	}
	if crashed {
		fs.stats.EventCrashes += n
	} else {
		fs.stats.Drained += n
	}
}

// EvacuatePool takes one of function fn's pools out of service at the
// current virtual time: its containers are removed — as crashes or as a
// graceful drain — and its snapshot image evicted, all accounted in the
// function's stats. The cluster applies it to every pool of a failed or
// draining host, then calls DispatchAll.
func (d *Dispatcher) EvacuatePool(fn int, pl *faas.Platform, crashed bool) {
	fs := d.fns[fn]
	emptyPool(fs, pl, crashed)
	fs.evictImage(pl)
}

// applyEvent executes one scheduled failure event against every function,
// then re-dispatches: a crash wave's queued requests must start
// their recovery cold starts at the event's time, not the next arrival's.
func (d *Dispatcher) applyEvent(ev Event) {
	if d.err != nil {
		return
	}
	for _, fs := range d.fns {
		for _, pl := range fs.pools {
			if pl == nil {
				continue
			}
			switch ev.Kind {
			case EventCrashWave:
				emptyPool(fs, pl, true)
			case EventCorruptImage:
				pl.CorruptImage()
			case EventDrain:
				emptyPool(fs, pl, false)
				fs.evictImage(pl)
			}
		}
		d.dispatch(fs)
	}
}

// Teardown tears every pool down (faas.Platform.Teardown), then reports the
// provider's remaining in-use frame count plus the pages the pools' kernels
// still lend (a snapshot store that outlived its container). On a leak-free
// fleet — any fault plan, any event schedule — the answer is the kernels'
// baseline (0): every frame a partial or crashed operation touched was
// released, every lent page returned, and each kernel's page memory is free
// for the next fleet or cluster built.
func (d *Dispatcher) Teardown() int {
	var phys []*mem.PhysMem
	for _, fs := range d.fns {
		for _, pl := range fs.pools {
			if pl != nil {
				pl.Teardown()
				if !slices.Contains(phys, pl.Kern.Phys) {
					phys = append(phys, pl.Kern.Phys)
				}
			}
		}
	}
	leaked := d.prov.FramesInUse()
	for _, p := range phys {
		leaked += p.Lent()
	}
	return leaked
}

// pickReady returns a container that can serve right now and its pool,
// scanning the pools in order, or nil.
func pickReady(fs *fnState, now sim.Time) (*faas.Container, *faas.Platform) {
	for _, pl := range fs.pools {
		if pl == nil {
			continue
		}
		for _, c := range pl.Containers() {
			if c.Ready() <= now {
				return c, pl
			}
		}
	}
	return nil, nil
}

// earliestReady returns the soonest ready time across the function's pools.
func earliestReady(fs *fnState) sim.Time {
	var best sim.Time
	for _, pl := range fs.pools {
		if pl == nil {
			continue
		}
		for _, c := range pl.Containers() {
			if best == 0 || c.Ready() < best {
				best = c.Ready()
			}
		}
	}
	return best
}
