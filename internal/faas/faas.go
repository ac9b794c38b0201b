// Package faas models the OpenWhisk-style platform the paper integrates
// Groundhog into: an invoker that owns function containers pinned to cores,
// actionloop-style stdin/stdout proxying, container cold starts with the
// Fig. 1 phases (environment instantiation, runtime initialization, data
// initialization, snapshot), and the two workload drivers of §5 — a
// closed-loop low-load client for latency (RunClosedLoop, and RunCallers for
// the trusted-caller optimization) and a saturating driver for peak
// throughput (RunSaturated). Open-loop arrivals are not driven here: a
// Platform is a container pool under internal/trace's dispatcher, which owns
// arrivals, queueing and scaling.
//
// One Platform instance evaluates one function in one configuration
// (isolation mode, container count), exactly like the paper's per-benchmark
// runs. The invoker enforces one-at-a-time execution per container and
// buffers requests until the container's process is back in a clean state —
// Groundhog's request-gating guarantee (§4.5).
package faas

import (
	"errors"
	"fmt"
	"time"

	"groundhog/internal/core"
	"groundhog/internal/faults"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/runtimes"
	"groundhog/internal/sim"
)

// RequestStats records one completed request.
type RequestStats struct {
	// Invoker is the function execution time measured at the invoker
	// (critical path: proxying + in-function compute and faults).
	Invoker sim.Duration
	// E2E adds the platform path (controller, load balancer, network).
	E2E sim.Duration
	// Cleanup is the off-critical-path work after the response (restore).
	Cleanup sim.Duration
	// Restore is Groundhog's breakdown, when state was rolled back.
	Restore core.RestoreStats
	// Restored reports whether this request's own cleanup rolled state
	// back.
	Restored bool
	// RolledBack reports whether the container was rolled back between its
	// previous request and this one: false for a container's first request,
	// under BASE and GH-NOP, and for a trusted same-caller follow-up. Unlike
	// Restored it is known when the response goes out, so it is what the
	// live plane reports.
	RolledBack bool
	// Completed is the virtual completion time of the response.
	Completed sim.Time
	// ReadyAgain is the virtual time the container could accept the next
	// request (Completed + Cleanup).
	ReadyAgain sim.Time
	// StateGets and StatePuts count this request's external state-store
	// operations (zero unless the profile declares state traffic; see
	// runtimes.Profile.StateGets/StatePuts). Their virtual cost is already
	// inside Invoker/E2E.
	StateGets int
	StatePuts int
}

// ColdStartStats reports a container's initialization, phase by phase
// (Fig. 1 of the paper). A container started down the snapshot-clone fast
// path skips the three pipeline phases entirely: Clone carries the whole
// cost and ClonedFrom names the donor.
type ColdStartStats struct {
	EnvInstantiation sim.Duration
	RuntimeInit      sim.Duration // runtime + data initialization + dummy request
	StrategyInit     sim.Duration // snapshotting (GH/FAASM), zero otherwise
	// Clone is the snapshot-clone duration when the container was cloned
	// from a sibling's snapshot instead of running the full Fig. 1
	// pipeline (the one-time image export is amortized into the
	// deployment's first clone).
	Clone sim.Duration
	// ClonedFrom is the donor container's ID, or -1 after a full cold
	// start. RemoteDonorID marks a clone from a template pulled from
	// another host rather than captured by a local full cold start.
	ClonedFrom int
	// Transfer is the cross-host image-pull delay this container's scale-up
	// waited for (folded into Total by ChargeColdStartDelay); zero for local
	// clones and full pipeline starts. A positive Transfer distinguishes the
	// cluster's transfer+clone path from the ~1 ms local clone.
	Transfer sim.Duration
	// Total is the whole cold start, including the exponential backoff of
	// any failed attempts before the container came up (counted per
	// platform in RecoveryStats).
	Total sim.Duration
}

// Container is one warm function container: a function process (plus
// manager, for interposing strategies) pinned to one core.
type Container struct {
	ID    int
	inst  *runtimes.Instance
	strat isolation.Strategy

	cold ColdStartStats

	// ready is when the container can accept the next request (it gates
	// requests until restoration has finished, §4.5).
	ready sim.Time

	// lastCaller supports the trusted-caller optimization (§4.4): when the
	// platform enables it and the next request comes from the same caller,
	// the rollback is skipped.
	lastCaller string
	tainted    bool // state modified since the last rollback
	// rolledBack records a rollback since the last response, for the next
	// one's RequestStats.RolledBack.
	rolledBack bool

	// lastDone is when the most recent response completed (keep-alive
	// bookkeeping for fleet dispatchers).
	lastDone sim.Time

	requests    uint64
	requestsSeq uint64 // ID source for Respond and Serve
}

// notifyRestored counts a rollback on the platform and routes the
// notification according to its time-virtualization setting (§5.3.1).
func (c *Container) notifyRestored(pl *Platform) {
	pl.restores++
	if pl.VirtualizeTime {
		c.inst.NotifyRestoredVirtualized()
	} else {
		c.inst.NotifyRestored()
	}
}

// Ready reports when the container can accept its next request.
func (c *Container) Ready() sim.Time { return c.ready }

// LastDone reports when the container last completed a response (zero if it
// has served none).
func (c *Container) LastDone() sim.Time { return c.lastDone }

// Requests reports the number of requests served.
func (c *Container) Requests() uint64 { return c.requests }

// ColdStart reports the container's initialization breakdown.
func (c *Container) ColdStart() ColdStartStats { return c.cold }

// Instance exposes the runtime instance (examples and tests use it).
func (c *Container) Instance() *runtimes.Instance { return c.inst }

// Platform hosts one function deployment under one isolation mode.
type Platform struct {
	Engine *sim.Engine
	Kern   *kernel.Kernel

	// TrustSameCaller enables the §4.4 optimization: consecutive requests
	// from the same caller skip the rollback between them. The rollback
	// still happens (before the next request) as soon as the caller
	// changes, so isolation across callers is preserved.
	TrustSameCaller bool

	// VirtualizeTime enables the §5.3.1 future-work fix: restoration also
	// resets the process's notion of time to the snapshot's, so
	// time-driven runtime machinery (Node's GC) does not re-warm after
	// every rollback.
	VirtualizeTime bool

	// CloneScaleOut enables snapshot-clone cold starts: the deployment's
	// first full Fig. 1 pipeline captures the clone template, and every
	// later AddContainer is spawned from its snapshot image — env, runtime
	// and data initialization are skipped, and the clone maps the image's
	// frames copy-on-write, so fleet memory grows with what containers dirty
	// rather than with the container count. Like Store, it must be set
	// before the first container is created. Off by default: the paper's
	// experiments measure full cold starts.
	CloneScaleOut bool

	// Store selects the StateStore implementation (§5.5) for the snapshotting
	// strategies: the eager copy store the paper ships (the zero value), or
	// the copy-on-write store it sketches. It must be set before containers
	// are created — deploy with zero constructor containers (NewPlatformOn)
	// and AddContainer afterwards to use a non-default store.
	Store core.StoreKind

	mode            isolation.Mode
	prof            runtimes.Profile
	containers      []*Container
	rng             *sim.Rand
	nextContainerID int
	coldSummary     ColdStartSummary

	// template is the deployment's clone source, captured right after its
	// snapshot by the full cold start that finds none (never when
	// CloneScaleOut is off). Its image is exported lazily, by the first clone
	// or pull; it outlives the donor container.
	template *cloneTemplate

	// recovery accumulates the deployment's failure-recovery counters.
	recovery RecoveryStats

	// serveMeter is the per-request meter serveAs reuses across requests
	// (serving is synchronous and never reentrant, so one scratch meter per
	// platform suffices; TestServeSteadyStateZeroAllocs pins this).
	serveMeter *sim.Meter

	// pending is the container whose cleanup Respond left for Settle (nil
	// when none is).
	pending *Container

	// restores counts the rollbacks run on the platform's containers.
	restores int
}

// RecoveryStats counts the deployment's failure-recovery actions. All zeros
// on a platform that never saw a fault.
type RecoveryStats struct {
	// ColdStartRetries counts failed cold-start attempts that were retried
	// with backoff; RetryBackoff is the total virtual delay those retries
	// added to container readiness (the deployment's recovery-latency bill).
	ColdStartRetries int
	RetryBackoff     sim.Duration
	// CloneFallbacks counts cold starts that fell back from the
	// snapshot-clone fast path to the full Fig. 1 pipeline.
	CloneFallbacks int
	// Crashes counts containers torn down by a crash before their request
	// produced a response (the request is the dispatcher's to retry).
	Crashes int
	// RestoreFaults counts post-response restore failures: the response was
	// delivered, then the container was torn down instead of rolled back.
	RestoreFaults int
	// ImageIntegrityFailures counts clone attempts aborted by the image
	// checksum (the image is evicted each time).
	ImageIntegrityFailures int
	// DonorsQuarantined counts templates evicted after repeated failures.
	DonorsQuarantined int
}

// Recovery reports the deployment's cumulative failure-recovery counters.
func (pl *Platform) Recovery() RecoveryStats { return pl.recovery }

// Restores reports how many rollbacks the platform has run: each cleanup
// that restored a container after its response, and each deferred restore a
// caller switch forced before a request under TrustSameCaller (§4.4). A
// cleanup Respond left pending counts once Settle runs it; a failed restore
// counts nothing.
func (pl *Platform) Restores() int { return pl.restores }

// RemoteDonorID is the ColdStartStats.ClonedFrom sentinel for containers
// cloned from an adopted (cross-host transferred) template: there is no
// local donor container to name, but the start still took the clone path —
// dispatchers test ClonedFrom >= 0, which holds.
const RemoteDonorID = 1 << 20

// cloneTemplate is the source of snapshot-clone cold starts: the donor
// manager, retained until its snapshot is exported (nil after, and for an
// adopted template), the donor instance's pristine warm bookkeeping, and the
// lazily exported image shared by all clones.
type cloneTemplate struct {
	donorID int
	donor   *core.Manager
	state   runtimes.ImageState
	image   *core.SnapshotImage
	// failures counts clone attempts this template has failed; at
	// QuarantineAfter it is evicted.
	failures int
}

// NewPlatform deploys the function described by prof under the given
// isolation mode on `containers` single-core containers, performing each
// container's cold start (sequentially, as OpenWhisk's invoker does when
// pre-warming). The platform owns a fresh engine and kernel.
func NewPlatform(cost kernel.CostModel, prof runtimes.Profile, mode isolation.Mode, containers int, seed uint64) (*Platform, error) {
	if containers < 1 {
		return nil, fmt.Errorf("faas: need at least one container")
	}
	return NewPlatformOn(sim.NewEngine(), kernel.New(cost), prof, mode, containers, seed)
}

// NewPlatformOn deploys onto an existing engine and kernel, so that several
// functions' platforms share one timeline and one memory pool (the fleet
// simulation in internal/trace uses this). Zero initial containers are
// allowed; AddContainer creates them on demand.
func NewPlatformOn(eng *sim.Engine, kern *kernel.Kernel, prof runtimes.Profile, mode isolation.Mode, containers int, seed uint64) (*Platform, error) {
	if containers < 0 {
		return nil, fmt.Errorf("faas: negative container count")
	}
	if mode == isolation.ModeFaasm && prof.Lang.WasmFactor() == 0 {
		return nil, fmt.Errorf("faas: %s: FAASM cannot run %v functions", prof.DisplayName(), prof.Lang)
	}
	pl := &Platform{
		Engine: eng,
		Kern:   kern,
		mode:   mode,
		prof:   prof,
		rng:    sim.NewRand(seed),
	}
	for i := 0; i < containers; i++ {
		// Constructor containers are pre-warmed: the paper's experiments
		// deliberately prevent cold starts (§5.1). Containers added later
		// (fleet scaling) do pay their initialization delay.
		if _, err := pl.AddWarmContainer(); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// AddWarmContainer cold-starts one more container with constructor
// semantics: it is ready immediately, as if pre-warmed before the
// simulation's window opened. Callers that must configure the platform
// (Store, CloneScaleOut) before the first container exists deploy with zero
// constructor containers and call this for the warm floor.
func (pl *Platform) AddWarmContainer() (*Container, error) {
	c, err := pl.AddContainer()
	if err != nil {
		return nil, err
	}
	c.ready = pl.Engine.Now()
	return c, nil
}

// MaxColdStartAttempts bounds AddContainer's retry loop: an injected
// cold-start failure is retried with exponential backoff until the container
// comes up or the budget is spent, at which point the error wraps both
// ErrColdStartFailed and the last attempt's cause.
const MaxColdStartAttempts = 4

// ColdStartBackoffBase is the virtual backoff before the first retry; it
// doubles per further attempt. The delay is folded into the container's
// readiness time (and summed in RecoveryStats.RetryBackoff), which is how
// retried cold starts surface as recovery latency.
const ColdStartBackoffBase = 25 * time.Millisecond

// AddContainer cold-starts one more container for this platform at the
// current virtual time; it becomes ready once its initialization completes.
// Injected cold-start failures (armed fault plans) are retried with
// exponential backoff — only genuine errors and an exhausted retry budget
// propagate.
func (pl *Platform) AddContainer() (*Container, error) {
	id := pl.nextContainerID
	pl.nextContainerID++
	var backoff sim.Duration
	for attempt := 1; ; attempt++ {
		c, err := pl.coldStart(id, pl.rng.Uint64())
		if err == nil {
			c.cold.Total += backoff
			pl.recordColdStart(c.cold)
			c.ready = pl.Engine.Now().Add(c.cold.Total)
			pl.containers = append(pl.containers, c)
			return c, nil
		}
		if !errors.Is(err, faults.ErrInjected) {
			// Genuine errors (bad configuration, programming errors) are not
			// retryable and propagate unclassified.
			return nil, err
		}
		if attempt >= MaxColdStartAttempts {
			return nil, fmt.Errorf("%w after %d attempt(s): %w", ErrColdStartFailed, attempt, err)
		}
		delay := sim.Duration(ColdStartBackoffBase) << (attempt - 1)
		backoff += delay
		pl.recovery.ColdStartRetries++
		pl.recovery.RetryBackoff += delay
	}
}

// RemoveContainer shuts a container down (keep-alive expiry), terminating
// its function process and releasing its memory — both the address space
// (kernel exit) and whatever the strategy holds (snapshot frame references of
// CoW and clone-shared stores, a fork child orphaned mid-request), so a
// removed clone's share of the image frames goes back to the pool.
func (pl *Platform) RemoveContainer(c *Container) {
	if pl.pending == c {
		pl.pending = nil
	}
	pl.Kern.Exit(c.inst.Proc)
	c.strat.Release()
	for i, x := range pl.containers {
		if x == c {
			pl.containers = append(pl.containers[:i], pl.containers[i+1:]...)
			return
		}
	}
}

// EvictImage drops the deployment's clone template and releases its snapshot
// image — the scale-to-zero policy: with no containers left, the exported
// image's materialized frames are the deployment's only remaining physical
// memory, and a provider reclaims them after a long-enough idle period. The
// next scale-up runs the full Fig. 1 pipeline again, which captures the next
// template. Returns true when an exported image was actually released
// (platforms that never cloned hold no image). Safe to call at any time:
// containers already cloned from the image keep their own frame references.
func (pl *Platform) EvictImage() bool {
	t := pl.template
	if t == nil {
		return false
	}
	pl.template = nil
	if t.donor != nil {
		t.donor.Release()
	}
	if t.image == nil {
		return false
	}
	t.image.Release()
	return true
}

// Teardown takes the deployment down: every container removed, then the
// image evicted, so the platform holds no frame of its kernel. On a kernel no
// other platform shares, a leak-free teardown frees the last frame, and the
// kernel's page memory goes to the next platform built (see mem.PhysMem).
func (pl *Platform) Teardown() {
	for len(pl.containers) > 0 {
		pl.RemoveContainer(pl.containers[0])
	}
	pl.EvictImage()
}

// Serve executes one request from the given caller on container c at the
// current virtual time. The container must be ready (Ready() <= now); the
// scheduler — workload driver or fleet dispatcher — is responsible for that.
func (pl *Platform) Serve(c *Container, caller string) (RequestStats, error) {
	c.requestsSeq++
	return pl.serveAs(c, c.requestsSeq, caller)
}

// Containers returns the warm containers.
func (pl *Platform) Containers() []*Container { return pl.containers }

// coldStart initializes one new container: the snapshot-clone fast path when
// the deployment holds a clone template, else the full Fig. 1 pipeline —
// which, under clone scale-out with no template, captures one right after
// its snapshot. A clone-path failure (injected spawn/export fault, integrity
// failure) penalizes the template and falls back to the full pipeline
// instead of failing the scale-up.
func (pl *Platform) coldStart(id int, seed uint64) (*Container, error) {
	if pl.CloneSourceReady() {
		tmpl := pl.template
		c, err := pl.cloneStart(id, seed, tmpl)
		if err == nil {
			return c, nil
		}
		if !errors.Is(err, faults.ErrInjected) && !errors.Is(err, ErrImageCorrupt) {
			return nil, err
		}
		pl.noteCloneFailure(tmpl, err)
		pl.recovery.CloneFallbacks++
	}
	cost := pl.Kern.Cost
	m := sim.NewMeter()

	// Environment instantiation: container image setup, cgroups, netns.
	env := pl.rng.Jitter(cost.EnvInstantiation, 0.08)
	sim.ChargeTo(m, env)

	// Runtime + data initialization: spawn the runtime process and warm it
	// (lazy loading, global state, the dummy request).
	sim.ChargeTo(m, cost.SpawnProcess)
	inst, err := runtimes.NewInstance(pl.Kern, pl.prof, seed)
	if err != nil {
		return nil, err
	}
	warmMeter := sim.NewMeter()
	inst.WarmUp(warmMeter)
	sim.ChargeTo(m, warmMeter.Total())

	// Injected pipeline failure, after the expensive phases: the dead
	// runtime's process must be reaped or its frames would leak.
	if ferr := pl.Kern.Faults.Fire(faults.SiteColdStart); ferr != nil {
		pl.Kern.Exit(inst.Proc)
		return nil, fmt.Errorf("faas: cold-start pipeline for container %d: %w", id, ferr)
	}

	strat, err := isolation.NewWithStore(pl.mode, pl.Kern, inst.Proc, pl.Store)
	if err != nil {
		return nil, err
	}
	inst.Wasm = pl.mode == isolation.ModeFaasm

	stratInit, err := strat.Init()
	if err != nil {
		return nil, err
	}
	sim.ChargeTo(m, stratInit)

	// The snapshot just taken is the deployment's clone template if it has
	// none: the template's hold keeps the snapshot past this container.
	if mgr := strat.Manager(); pl.CloneScaleOut && pl.template == nil && mgr != nil {
		mgr.Retain()
		pl.template = &cloneTemplate{donorID: id, donor: mgr, state: inst.CaptureState()}
	}

	c := &Container{
		ID:    id,
		inst:  inst,
		strat: strat,
		cold: ColdStartStats{
			EnvInstantiation: env,
			RuntimeInit:      cost.SpawnProcess + warmMeter.Total(),
			StrategyInit:     stratInit,
			ClonedFrom:       -1,
			Total:            m.Total(),
		},
		ready: pl.Engine.Now(),
	}
	return c, nil
}

// CloneSourceReady reports whether a scale-up right now would take the
// snapshot-clone fast path: clone scale-out is enabled and the deployment
// holds a clone template, which outlives every container. Scheduling
// policies read it to decide whether scaling to zero is cheap to undo.
func (pl *Platform) CloneSourceReady() bool {
	return pl.CloneScaleOut && pl.template != nil
}

// cloneStart is the snapshot-clone cold start: spawn the container's process
// directly from the donor snapshot's image, frames shared copy-on-write —
// no environment instantiation, no runtime or data initialization, no
// snapshotting. The deployment's first clone additionally pays the one-time
// image export.
func (pl *Platform) cloneStart(id int, seed uint64, tmpl *cloneTemplate) (*Container, error) {
	cost := pl.Kern.Cost
	m := sim.NewMeter()

	if err := pl.exportTemplate(tmpl, m); err != nil {
		return nil, err
	}
	// Injected frame corruption (bit-rot between export and clone) lands
	// here; the integrity check below is what detects it — the same check
	// every clone on a fault-armed platform performs.
	if ferr := pl.Kern.Faults.Fire(faults.SiteImageCorrupt); ferr != nil {
		tmpl.image.MarkCorrupted()
	}
	if !tmpl.image.Verify(cost.ChecksumPerPage, m) {
		pl.recovery.ImageIntegrityFailures++
		return nil, fmt.Errorf("faas: clone from container %d: %w", tmpl.donorID, ErrImageCorrupt)
	}
	strat, proc, err := isolation.NewCloned(pl.mode, pl.Kern, tmpl.image, m)
	if err != nil {
		return nil, fmt.Errorf("faas: clone cold start: %w", err)
	}
	inst := runtimes.NewInstanceFromState(pl.Kern, proc, tmpl.state, seed)

	c := &Container{
		ID:    id,
		inst:  inst,
		strat: strat,
		cold: ColdStartStats{
			Clone:      m.Total(),
			ClonedFrom: tmpl.donorID,
			Total:      m.Total(),
		},
		ready: pl.Engine.Now(),
	}
	return c, nil
}

// exportTemplate materializes the template's snapshot image if it has not
// been exported yet, charging the export to meter. Once exported the
// template releases its hold on the donor manager: the snapshot was only
// needed for the export, and a removed donor's snapshot (the CoW store's
// frame references) goes back to the pool while the image lives on.
func (pl *Platform) exportTemplate(tmpl *cloneTemplate, m *sim.Meter) error {
	if tmpl.image != nil {
		return nil
	}
	img, err := tmpl.donor.ExportImage(m)
	if err != nil {
		return fmt.Errorf("faas: clone export from container %d: %w", tmpl.donorID, err)
	}
	tmpl.image = img
	tmpl.donor.Release()
	tmpl.donor = nil
	return nil
}

// HasImage reports whether the deployment holds an exported snapshot image
// that is still live. Cluster registries read it to derive per-host image
// presence from the image's own lifecycle — there is no separate presence
// bit to go stale.
func (pl *Platform) HasImage() bool {
	t := pl.template
	return t != nil && t.image != nil
}

// EnsureExportedImage exports the deployment's clone template's snapshot
// image now, if it has not been yet, charging any export work to meter — the
// transfer-source side of a cross-host image pull, where the export cost is
// amortized into the first pull exactly as cloneStart amortizes it into the
// first local clone. Fails when the deployment holds no template (or clone
// scale-out is off).
func (pl *Platform) EnsureExportedImage(m *sim.Meter) (*core.SnapshotImage, runtimes.ImageState, error) {
	if !pl.CloneSourceReady() {
		return nil, runtimes.ImageState{}, fmt.Errorf("faas: export image: no clone template")
	}
	tmpl := pl.template
	if err := pl.exportTemplate(tmpl, m); err != nil {
		return nil, runtimes.ImageState{}, err
	}
	return tmpl.image, tmpl.state, nil
}

// AdoptTemplate installs a transferred snapshot image as the deployment's
// clone template — the destination side of a cross-host image pull. The
// platform takes ownership of img (the copy core.CopyImageTo returned);
// EvictImage releases it like any locally exported image. Subsequent
// AddContainer calls clone from the adopted image with ClonedFrom =
// RemoteDonorID. A template already present is evicted first, so adopting
// never leaks the previous image's frames.
func (pl *Platform) AdoptTemplate(img *core.SnapshotImage, state runtimes.ImageState) error {
	if img == nil || img.Released() {
		return fmt.Errorf("faas: adopt released snapshot image: %w", ErrImageEvicted)
	}
	if pl.template != nil {
		pl.EvictImage()
	}
	pl.template = &cloneTemplate{donorID: RemoteDonorID, state: state, image: img}
	return nil
}

// ChargeColdStartDelay folds an externally imposed delay into a just-added
// container's cold start — the cluster uses it for the image-pull wait a
// scale-up cannot skip: the container becomes ready later and the delay
// joins its ColdStartStats.Total (recorded as Transfer when this container's
// own pull caused it, merely as added latency when it waited on a pull
// already in flight). The delay stays out of the deployment's
// ColdStartSummary: the cluster tallies its transfers itself. Call it
// immediately after AddContainer, before the container serves.
func (pl *Platform) ChargeColdStartDelay(c *Container, d sim.Duration, transfer bool) {
	if d <= 0 {
		return
	}
	c.cold.Total += d
	c.ready = c.ready.Add(d)
	if transfer {
		c.cold.Transfer += d
	}
}

// QuarantineAfter is the number of clone failures a template tolerates
// before it is quarantined: evicted, so the next scale-up replays the full
// pipeline and that cold start captures a fresh template. A failed donor is
// never captured again.
const QuarantineAfter = 3

// noteCloneFailure penalizes the template after a failed clone attempt. An
// image that fails its integrity check is evicted immediately; other
// failures count against the template until it is quarantined. Once the
// template is gone, the failing scale-up's fallback pipeline captures the
// next one.
func (pl *Platform) noteCloneFailure(tmpl *cloneTemplate, err error) {
	if errors.Is(err, ErrImageCorrupt) {
		pl.EvictImage()
		return
	}
	tmpl.failures++
	if tmpl.failures >= QuarantineAfter {
		pl.recovery.DonorsQuarantined++
		pl.EvictImage()
	}
}

// CorruptImage marks the deployment's exported snapshot image as corrupted —
// the fleet simulator's image-corruption event. The next clone attempt's
// integrity check detects it, evicts the image, and falls back to the full
// pipeline. Returns false when no exported image exists to corrupt.
func (pl *Platform) CorruptImage() bool {
	if pl.template == nil || pl.template.image == nil {
		return false
	}
	pl.template.image.MarkCorrupted()
	return true
}

// ColdStartSummary is the deployment's cumulative scale-up bill: how many
// containers ran the full Fig. 1 pipeline vs. the snapshot-clone fast path
// (pre-warmed constructor containers count as full — they did run the
// pipeline), and the summed virtual cost per path. The server's
// /deployments endpoint reads it; unlike per-container ColdStartStats it
// survives container removal. Delays a cluster charges through
// ChargeColdStartDelay stay out of it.
type ColdStartSummary struct {
	// Full and Clone count the cold starts per path.
	Full  int
	Clone int
	// FullCost and CloneCost split the summed virtual duration by path.
	FullCost  sim.Duration
	CloneCost sim.Duration
}

// ColdStarts reports the deployment's cumulative cold-start summary.
func (pl *Platform) ColdStarts() ColdStartSummary { return pl.coldSummary }

// recordColdStart folds one container's initialization into the
// deployment's cumulative summary.
func (pl *Platform) recordColdStart(cold ColdStartStats) {
	if cold.ClonedFrom >= 0 {
		pl.coldSummary.Clone++
		pl.coldSummary.CloneCost += cold.Total
	} else {
		pl.coldSummary.Full++
		pl.coldSummary.FullCost += cold.Total
	}
}

// MemoryStats is the deployment's fleet-wide memory accounting, the figures
// /deployments reports per deployment.
type MemoryStats struct {
	// StateStoreBytes is the managers' materialized snapshot memory, summed
	// over containers. Cloned containers' stores share the image's frames,
	// so their contribution stays near zero until frames diverge.
	StateStoreBytes int
	// ResidentPages is the containers' total resident set.
	ResidentPages int
	// SharedFramePages counts resident pages whose backing frame is shared
	// (reference count > 1) — cross-container frame sharing at work. Each
	// such page would cost one more physical frame per container on a
	// platform without clone scale-out.
	SharedFramePages int
	// FramesInUse is the backing kernel's live frame count. Platforms
	// sharing a kernel (fleet simulations) see the host-wide figure.
	FramesInUse int
}

// Footprint reports the two memory figures the scaling policies read: the
// containers' resident set and their managers' materialized snapshot memory
// (MemoryStats.ResidentPages and StateStoreBytes), without Memory's walk
// over every resident page.
func (pl *Platform) Footprint() (residentPages, stateStoreBytes int) {
	for _, c := range pl.containers {
		residentPages += c.inst.Proc.AS.ResidentPages()
		if m := c.strat.Manager(); m != nil {
			stateStoreBytes += m.StateStoreBytes()
		}
	}
	return residentPages, stateStoreBytes
}

// Memory reports the deployment's current memory accounting.
func (pl *Platform) Memory() MemoryStats {
	st := MemoryStats{FramesInUse: pl.Kern.Phys.InUse()}
	st.ResidentPages, st.StateStoreBytes = pl.Footprint()
	phys := pl.Kern.Phys
	var vpns []uint64
	for _, c := range pl.containers {
		as := c.inst.Proc.AS
		vpns = as.AppendResidentVPNs(vpns[:0])
		for _, vpn := range vpns {
			if pte, ok := as.PTEAt(vpn); ok && phys.Refs(pte.Frame) > 1 {
				st.SharedFramePages++
			}
		}
	}
	return st
}

// InvokeOnce executes a single request from the given caller on the first
// container, advancing virtual time past any in-progress restoration first
// (the request-gating rule of §4.5): Respond and Settle back to back, with
// both halves of the stats in one RequestStats.
func (pl *Platform) InvokeOnce(caller string) (RequestStats, error) {
	st, err := pl.Respond(caller)
	if err != nil {
		return st, err
	}
	if err := pl.settle(&st); err != nil {
		return RequestStats{}, err
	}
	return st, nil
}

// Respond is the first half of InvokeOnce and the live plane's request
// path (internal/server): it settles any cleanup still pending, advances
// virtual time past the container's restoration, and runs one request from
// caller on the first container up to its response. The request's own
// cleanup is left pending until Settle, or the next Respond, runs it, so no
// request reaches the container before the previous one's rollback has run.
// The stats carry the response half: Cleanup, Restore, Restored and
// ReadyAgain are Settle's.
func (pl *Platform) Respond(caller string) (RequestStats, error) {
	if _, err := pl.Settle(); err != nil {
		return RequestStats{}, err
	}
	if len(pl.containers) == 0 {
		return RequestStats{}, ErrNoContainers
	}
	c := pl.containers[0]
	if c.ready > pl.Engine.Now() {
		pl.Engine.RunUntil(c.ready)
	}
	c.requestsSeq++
	var st RequestStats
	if err := pl.respond(c, c.requestsSeq, caller, &st); err != nil {
		return RequestStats{}, err
	}
	pl.pending = c
	pl.Engine.RunUntil(st.Completed)
	return st, nil
}

// Settle runs the cleanup Respond left pending and returns its half of the
// request's stats: Cleanup, Restore, Restored and ReadyAgain. With nothing
// pending it does nothing. A post-response restore fault removes the
// container, as in serveAs; any other failure leaves the cleanup pending, so
// the container serves nothing until a later Settle succeeds.
func (pl *Platform) Settle() (RequestStats, error) {
	var st RequestStats
	if err := pl.settle(&st); err != nil {
		return RequestStats{}, err
	}
	return st, nil
}

// settle runs the pending cleanup, if any, into st.
func (pl *Platform) settle(st *RequestStats) error {
	c := pl.pending
	if c == nil {
		return nil
	}
	if err := pl.cleanup(c, st); err != nil {
		return err
	}
	pl.pending = nil
	return nil
}

// serveAs executes one request from the given security principal
// synchronously against container c and returns its stats: the response
// half (respond), then the cleanup half (cleanup). The caller is responsible
// for scheduling: c must be ready.
func (pl *Platform) serveAs(c *Container, reqID uint64, caller string) (st RequestStats, err error) {
	if err = pl.respond(c, reqID, caller, &st); err == nil {
		err = pl.cleanup(c, &st)
	}
	if err != nil {
		return RequestStats{}, err
	}
	return st, nil
}

// respond runs one request on container c up to its response and fills
// st's response half. Under the trusted-caller optimization, consecutive
// requests from the same principal skip the rollback between them; a change
// of principal forces the deferred rollback before the new request executes
// (§4.4).
func (pl *Platform) respond(c *Container, reqID uint64, caller string, st *RequestStats) error {
	cost := &pl.Kern.Cost
	m := pl.serveMeter
	if m == nil {
		m = sim.NewMeter()
		pl.serveMeter = m
	} else {
		m.Reset()
	}
	req := runtimes.Request{ID: reqID, SizeKB: pl.prof.InputKB}

	// Deferred rollback: the container still holds the previous caller's
	// state and this request must not see it. A failed rollback here means
	// the request never ran — the container is crashed before it can leak
	// the previous caller's state, and the request may be retried elsewhere.
	var preRestore sim.Duration
	if c.tainted && (!pl.TrustSameCaller || caller != c.lastCaller) {
		cleanup, err := c.strat.EndRequest()
		if err != nil {
			if errors.Is(err, faults.ErrInjected) {
				pl.crash(c)
				return fmt.Errorf("%w: deferred rollback on container %d: %w", ErrContainerCrashed, c.ID, err)
			}
			return err
		}
		if cleanup.Restored {
			c.notifyRestored(pl)
			c.rolledBack = true
		}
		c.tainted = false
		preRestore = cleanup.Duration
	}

	// Input path. Interposing strategies (Groundhog, fork) relay the
	// request through the manager: an extra copy in and out (§4.5).
	if c.strat.Interposes() {
		sim.ChargeTo(m, cost.ProxyPerRequest+relay(cost.PipePerKB, pl.prof.InputKB))
	}

	proc, err := c.strat.BeginRequest(m)
	if err != nil {
		return err
	}

	// Mid-request crash seam: the function process dies after the request
	// was handed over but before any response exists. The container is torn
	// down (releasing every frame it held, including a fork strategy's
	// in-flight child) and the caller decides whether to retry the request
	// on another container.
	if ferr := pl.Kern.Faults.Fire(faults.SiteRequestCrash); ferr != nil {
		pl.crash(c)
		return fmt.Errorf("%w: container %d: %w", ErrContainerCrashed, c.ID, ferr)
	}

	getsBefore, putsBefore := c.inst.StateOps()
	resp := c.inst.InvokeOn(proc, req, m)
	gets, puts := c.inst.StateOps()

	// Output path: interposing strategies relay the response back through
	// the manager too.
	if c.strat.Interposes() {
		sim.ChargeTo(m, relay(cost.PipePerKB, resp.SizeKB))
	}

	// The response is now back at the invoker; cleanup happens after.
	invoker := m.Total()
	completed := pl.Engine.Now().Add(preRestore + invoker)
	c.requests++
	c.lastDone = completed
	c.lastCaller = caller
	st.Invoker = invoker
	st.E2E = preRestore + invoker + pl.rng.Jitter(cost.PlatformOverhead, 0.25)
	st.RolledBack = c.rolledBack
	st.Completed = completed
	st.StateGets = gets - getsBefore
	st.StatePuts = puts - putsBefore
	c.rolledBack = false
	return nil
}

// cleanup is the half of a request after its response, and fills st's
// cleanup half: the rollback, unless the platform trusts the next
// same-caller request, in which case the container is marked tainted and
// the rollback deferred (and possibly elided entirely). A rollback that
// fails here cannot fail the request (the response was already delivered):
// the container is torn down instead, since it can never isolate another
// request. The container is ready again once the cleanup is done.
func (pl *Platform) cleanup(c *Container, st *RequestStats) error {
	var res isolation.CleanupResult
	if pl.TrustSameCaller && c.strat.CanSkipCleanup() {
		c.tainted = true
	} else {
		var err error
		res, err = c.strat.EndRequest()
		if err != nil {
			if !errors.Is(err, faults.ErrInjected) {
				return err
			}
			pl.recovery.RestoreFaults++
			pl.RemoveContainer(c)
			res = isolation.CleanupResult{}
		} else if res.Restored {
			c.notifyRestored(pl)
			c.rolledBack = true
		}
	}
	c.ready = c.lastDone.Add(res.Duration)
	st.Cleanup = res.Duration
	st.Restore = res.Restore
	st.Restored = res.Restored
	st.ReadyAgain = c.ready
	return nil
}

// relay is the pipe copy of a kb-KB message the manager passes between the
// platform and the function (§4.5): perKB on the send and again on the
// receive. An empty message copies nothing.
func relay(perKB sim.Duration, kb int) sim.Duration {
	if kb <= 0 {
		return 0
	}
	return 2 * perKB * sim.Duration(kb)
}

// crash tears down a container that died before its request produced a
// response: the process is reaped and the strategy's frame references
// released exactly as on keep-alive expiry, and the deployment's crash
// counter advances. The in-flight request is the caller's to retry on
// another container.
func (pl *Platform) crash(c *Container) {
	pl.recovery.Crashes++
	pl.RemoveContainer(c)
}
