// Package faas models the OpenWhisk-style platform the paper integrates
// Groundhog into: an invoker that owns function containers pinned to cores,
// actionloop-style stdin/stdout proxying, container cold starts with the
// Fig. 1 phases (environment instantiation, runtime initialization, data
// initialization, snapshot), and the two workload drivers of §5 — a
// closed-loop low-load client for latency and a saturating driver for peak
// throughput.
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
	"slices"
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
	// PreRestore is rollback work forced onto this request's critical path
	// by the trusted-caller optimization: the previous caller's deferred
	// restore ran just before this request (§4.4).
	PreRestore sim.Duration
	// Restore is Groundhog's breakdown, when state was rolled back.
	Restore core.RestoreStats
	// Restored reports whether the cleanup rolled state back.
	Restored bool
	// Completed is the virtual completion time of the response.
	Completed sim.Time
	// ReadyAgain is the virtual time the container could accept the next
	// request (Completed + Cleanup).
	ReadyAgain sim.Time
	// ContainerLost reports that the container was torn down right after
	// delivering this response: its post-response rollback failed, so it
	// could never isolate another request. The response itself is valid —
	// the request is served, only the container is gone.
	ContainerLost bool
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
	// another host rather than captured from a pooled sibling.
	ClonedFrom int
	// Transfer is the cross-host image-pull delay this container's scale-up
	// waited for (folded into Total by ChargeColdStartDelay); zero for local
	// clones and full pipeline starts. A positive Transfer distinguishes the
	// cluster's transfer+clone path from the ~1 ms local clone.
	Transfer sim.Duration
	Total    sim.Duration
	// Retries counts failed attempts before this container came up; the
	// exponential backoff they cost is folded into Total (and reported
	// separately as RetryBackoff).
	Retries      int
	RetryBackoff sim.Duration
	// CloneFallback marks a full-pipeline start that was forced by a
	// clone-path failure (lost template, integrity failure, spawn fault).
	CloneFallback bool
}

// Container is one warm function container: a function process (plus
// manager, for interposing strategies) pinned to one core.
type Container struct {
	ID    int
	inst  *runtimes.Instance
	strat isolation.Strategy

	stdin  *kernel.Pipe
	stdout *kernel.Pipe

	cold ColdStartStats

	// ready is when the container can accept the next request (it gates
	// requests until restoration has finished, §4.5).
	ready sim.Time

	// lastCaller supports the trusted-caller optimization (§4.4): when the
	// platform enables it and the next request comes from the same caller,
	// the rollback is skipped.
	lastCaller string
	tainted    bool // state modified since the last rollback

	// lastDone is when the most recent response completed (keep-alive
	// bookkeeping for fleet dispatchers).
	lastDone sim.Time

	requests    uint64
	requestsSeq uint64 // ID source for InvokeOnce and Serve

	// reqBox and respBox are the container's in-flight request and response,
	// boxed once per container instead of once per message: a pipe payload
	// is an interface value, and wrapping the structs directly would heap-
	// allocate a copy on every request the fleet serves.
	reqBox  runtimes.Request
	respBox runtimes.Response
}

// notifyRestored routes the rollback notification according to the
// platform's time-virtualization setting (§5.3.1).
func (c *Container) notifyRestored(pl *Platform) {
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

	// DirectReturn enables the §4.5 design option (2): the function
	// returns its response directly to the platform and only signals the
	// manager, eliminating the output copy through the proxy. The input
	// path is still gated by the manager.
	DirectReturn bool

	// VirtualizeTime enables the §5.3.1 future-work fix: restoration also
	// resets the process's notion of time to the snapshot's, so
	// time-driven runtime machinery (Node's GC) does not re-warm after
	// every rollback.
	VirtualizeTime bool

	// CloneScaleOut enables snapshot-clone cold starts: the first container
	// of the deployment runs the full Fig. 1 pipeline, and every later
	// AddContainer is spawned from its snapshot image — env, runtime and
	// data initialization are skipped, and the clone maps the donor
	// snapshot's frames copy-on-write, so fleet memory grows with what
	// containers dirty rather than with the container count. Off by
	// default: the paper's experiments measure full cold starts.
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

	// template is the deployment's clone source, captured lazily on the
	// first clone request (never when CloneScaleOut is off, so disabled
	// platforms retain no donor state). The expensive image export happens
	// lazily too; once captured, the template stays valid even after the
	// donor container is removed.
	template *cloneTemplate

	// quarantined holds donor container IDs banned from further clone
	// donation after repeated clone failures (see QuarantineAfter).
	quarantined map[int]bool
	// recovery accumulates the deployment's failure-recovery counters.
	recovery RecoveryStats

	// serveMeter is the per-request meter serveAs reuses across requests
	// (serving is synchronous and never reentrant, so one scratch meter per
	// platform suffices; TestServeSteadyStateZeroAllocs pins this).
	serveMeter *sim.Meter
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
	// DonorsQuarantined counts donors banned after repeated clone failures.
	DonorsQuarantined int
}

// Recovery reports the deployment's cumulative failure-recovery counters.
func (pl *Platform) Recovery() RecoveryStats { return pl.recovery }

// RemoteDonorID is the ColdStartStats.ClonedFrom sentinel for containers
// cloned from an adopted (cross-host transferred) template: there is no
// pooled donor container to name, but the start still took the clone path —
// dispatchers test ClonedFrom >= 0, which holds.
const RemoteDonorID = 1 << 20

// cloneTemplate is the donor material for snapshot-clone cold starts: the
// manager whose snapshot will be exported (nil once it has been, and for an
// adopted template), the donor instance's warm bookkeeping (captured while
// pristine, immediately after strategy Init), and the lazily-exported image
// shared by all clones.
type cloneTemplate struct {
	donorID int
	donor   *core.Manager
	state   runtimes.ImageState
	image   *core.SnapshotImage
	// failures counts clone attempts this template has failed; at
	// QuarantineAfter the donor is quarantined and the template dropped.
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
// simulation's window opened. Fleets that must configure the platform
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
// readiness time (and reported in ColdStartStats.RetryBackoff), which is how
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
	var retries int
	for attempt := 1; ; attempt++ {
		c, err := pl.coldStart(id, pl.rng.Uint64())
		if err == nil {
			c.cold.Retries = retries
			c.cold.RetryBackoff = backoff
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
		retries++
		pl.recovery.ColdStartRetries++
		pl.recovery.RetryBackoff += delay
	}
}

// RemoveContainer shuts a container down (keep-alive expiry), terminating
// its function process and releasing its memory — both the address space
// (kernel exit) and whatever the strategy holds (snapshot frame references of
// CoW and clone-shared stores, a fork child orphaned mid-request), so a
// removed clone's share of the image frames goes back to the pool. A manager
// currently held as the deployment's not-yet-exported clone template is kept
// alive: its snapshot is the donor material future clones are exported from.
func (pl *Platform) RemoveContainer(c *Container) {
	pl.Kern.Exit(c.inst.Proc)
	if t := pl.template; t == nil || t.donor == nil || t.donor != c.strat.Manager() {
		c.strat.Release()
	}
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
// next scale-up runs the full Fig. 1 pipeline again and re-exports lazily on
// the next clone. Returns true when an exported image was actually released
// (platforms that never cloned hold no image). Safe to call at any time:
// containers already cloned from the image keep their own frame references.
func (pl *Platform) EvictImage() bool {
	t := pl.template
	if t == nil {
		return false
	}
	pl.template = nil
	evicted := false
	if t.image != nil {
		t.image.Release()
		evicted = true
	}
	// A template captured but never exported pins the donor manager's
	// snapshot. If the donor container is gone, nothing else will release
	// it; if it is still pooled, its own RemoveContainer does.
	isDonor := func(c *Container) bool { return c.strat.Manager() == t.donor }
	if t.donor != nil && !slices.ContainsFunc(pl.containers, isDonor) {
		t.donor.Release()
	}
	return evicted
}

// Serve executes one request from the given caller on container c at the
// current virtual time. The container must be ready (Ready() <= now); the
// scheduler — workload driver or fleet dispatcher — is responsible for that.
func (pl *Platform) Serve(c *Container, caller string) (RequestStats, error) {
	c.requestsSeq++
	return pl.serveAs(c, c.requestsSeq, caller)
}

// Mode returns the platform's isolation mode.
func (pl *Platform) Mode() isolation.Mode { return pl.mode }

// Containers returns the warm containers.
func (pl *Platform) Containers() []*Container { return pl.containers }

// coldStart initializes one new container: the full Fig. 1 pipeline, or —
// when clone scale-out is enabled and a sibling snapshot exists — the
// snapshot-clone fast path. A clone-path failure (injected spawn/export
// fault, integrity failure, evicted image) penalizes the template and falls
// back to the full pipeline instead of failing the scale-up.
func (pl *Platform) coldStart(id int, seed uint64) (*Container, error) {
	cloneFallback := false
	if pl.CloneScaleOut {
		if tmpl := pl.cloneSource(); tmpl != nil {
			c, err := pl.cloneStart(id, seed, tmpl)
			if err == nil {
				return c, nil
			}
			if !errors.Is(err, faults.ErrInjected) &&
				!errors.Is(err, ErrImageCorrupt) && !errors.Is(err, ErrImageEvicted) {
				return nil, err
			}
			pl.noteCloneFailure(tmpl, err)
			pl.recovery.CloneFallbacks++
			cloneFallback = true
		}
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

	c := &Container{
		ID:     id,
		inst:   inst,
		strat:  strat,
		stdin:  kernel.NewPipe(fmt.Sprintf("c%d-stdin", id), cost.PipePerKB),
		stdout: kernel.NewPipe(fmt.Sprintf("c%d-stdout", id), cost.PipePerKB),
		cold: ColdStartStats{
			EnvInstantiation: env,
			RuntimeInit:      cost.SpawnProcess + warmMeter.Total(),
			StrategyInit:     stratInit,
			ClonedFrom:       -1,
			Total:            m.Total(),
			CloneFallback:    cloneFallback,
		},
		ready: pl.Engine.Now(),
	}
	return c, nil
}

// cloneSource returns the deployment's clone template, capturing it from a
// live container on first use. A pristine container (one that has served no
// requests) is preferred: its instance bookkeeping is exactly the
// snapshot-time state, so a clone behaves like a fully-initialized sibling
// from its very first request. Failing that, a quiescent, untainted
// container of a *restoring* mode works — its instance sits in the
// post-restore state the snapshot image reproduces. Served gh-nop
// containers never qualify: they roll nothing back, so their bookkeeping
// (churn regions, leak counters) references state the snapshot does not
// hold. Tainted containers (a deferred rollback under the trusted-caller
// optimization) are never donors for the same reason. With no eligible
// donor the caller falls back to the full pipeline.
func (pl *Platform) cloneSource() *cloneTemplate {
	if pl.template != nil {
		return pl.template
	}
	donor := pl.findDonor()
	if donor == nil {
		return nil
	}
	pl.template = &cloneTemplate{
		donorID: donor.ID,
		donor:   donor.strat.Manager(),
		state:   donor.inst.CaptureState(),
	}
	return pl.template
}

// findDonor scans the pool for a clone-eligible donor (see cloneSource for
// the eligibility rules) without capturing anything.
func (pl *Platform) findDonor() *Container {
	var donor *Container
	for _, c := range pl.containers {
		if c.tainted || pl.quarantined[c.ID] {
			continue
		}
		if c.strat.Manager() == nil {
			continue // BASE and fork record no snapshot to clone from
		}
		if c.requests == 0 {
			return c
		}
		if donor == nil && c.strat.Mode() != isolation.ModeGHNop {
			donor = c
		}
	}
	return donor
}

// CloneSourceReady reports whether a scale-up right now would take the
// snapshot-clone fast path: clone scale-out is enabled and either the
// template is already captured (its image outlives every container) or an
// eligible donor sits in the pool. Read-only — unlike cloneSource it
// captures nothing. Scheduling policies read it to decide whether scaling
// to zero is cheap to undo.
func (pl *Platform) CloneSourceReady() bool {
	if !pl.CloneScaleOut {
		return false
	}
	return pl.template != nil || pl.findDonor() != nil
}

// EnsureCloneTemplate captures the deployment's clone template now, if
// clone scale-out is enabled and a donor is available, and reports whether
// a template exists after the call. Scale-to-zero policies that keep the
// snapshot image call this before removing the last container: the
// template (and the snapshot it will be exported from) survives the
// donor's removal, so the next scale-up clones instead of replaying the
// Fig. 1 pipeline.
func (pl *Platform) EnsureCloneTemplate() bool {
	if !pl.CloneScaleOut {
		return false
	}
	return pl.cloneSource() != nil
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
	if tmpl.image.Released() {
		return nil, fmt.Errorf("faas: clone from container %d: %w", tmpl.donorID, ErrImageEvicted)
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
		ID:     id,
		inst:   inst,
		strat:  strat,
		stdin:  kernel.NewPipe(fmt.Sprintf("c%d-stdin", id), cost.PipePerKB),
		stdout: kernel.NewPipe(fmt.Sprintf("c%d-stdout", id), cost.PipePerKB),
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
// been exported yet, charging the export to meter. Once exported the donor
// manager reference is dropped: it was only needed for the export, and
// dropping it lets a removed donor's manager (and its snapshot store) be
// reclaimed while the image lives on.
func (pl *Platform) exportTemplate(tmpl *cloneTemplate, m *sim.Meter) error {
	if tmpl.image != nil {
		return nil
	}
	img, err := tmpl.donor.ExportImage(m)
	if err != nil {
		return fmt.Errorf("faas: clone export from container %d: %w", tmpl.donorID, err)
	}
	tmpl.image = img
	tmpl.donor = nil
	return nil
}

// HasImage reports whether the deployment holds an exported snapshot image
// that is still live. Cluster registries read it to derive per-host image
// presence from the image's own lifecycle — there is no separate presence
// bit to go stale.
func (pl *Platform) HasImage() bool {
	t := pl.template
	return t != nil && t.image != nil && !t.image.Released()
}

// EnsureExportedImage captures the deployment's clone template if needed and
// exports its snapshot image now, charging any export work to meter — the
// transfer-source side of a cross-host image pull, where the export cost is
// amortized into the first pull exactly as cloneStart amortizes it into the
// first local clone. Fails with ErrNoDonor when no eligible donor is pooled
// and no template survives, and with a plain error when clone scale-out is
// off.
func (pl *Platform) EnsureExportedImage(m *sim.Meter) (*core.SnapshotImage, runtimes.ImageState, error) {
	if !pl.CloneScaleOut {
		return nil, runtimes.ImageState{}, fmt.Errorf("faas: clone scale-out disabled")
	}
	tmpl := pl.cloneSource()
	if tmpl == nil {
		return nil, runtimes.ImageState{}, fmt.Errorf("faas: export image: %w", ErrNoDonor)
	}
	if err := pl.exportTemplate(tmpl, m); err != nil {
		return nil, runtimes.ImageState{}, err
	}
	if tmpl.image.Released() {
		return nil, runtimes.ImageState{}, fmt.Errorf("faas: export image: %w", ErrImageEvicted)
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
// scale-up cannot skip: the container becomes ready later, the delay joins
// its ColdStartStats.Total (recorded as Transfer when this container's own
// pull caused it, merely as added latency when it waited on a pull already
// in flight), and the deployment's cumulative summary moves the clone into
// the transfer bucket. Call it immediately after AddContainer, before the
// container serves.
func (pl *Platform) ChargeColdStartDelay(c *Container, d sim.Duration, transfer bool) {
	if d <= 0 {
		return
	}
	c.cold.Total += d
	c.ready = c.ready.Add(d)
	if transfer {
		c.cold.Transfer += d
	}
	if c.cold.ClonedFrom >= 0 {
		pl.coldSummary.CloneCost += d
		if transfer {
			pl.coldSummary.TransferClone++
			pl.coldSummary.TransferCost += d
		}
	} else {
		pl.coldSummary.FullCost += d
	}
	pl.coldSummary.TotalCost += d
}

// QuarantineAfter is the number of clone failures a template tolerates
// before its donor is quarantined: the donor's ID is banned from further
// donation and the template dropped, so the next clone attempt recaptures
// from a different (presumably healthy) container.
const QuarantineAfter = 3

// noteCloneFailure penalizes the template after a failed clone attempt. An
// unusable image (integrity failure, eviction) is dropped immediately — the
// next scale-up recaptures from a live donor or replays the pipeline.
// Other failures count against the donor until it is quarantined.
func (pl *Platform) noteCloneFailure(tmpl *cloneTemplate, err error) {
	if errors.Is(err, ErrImageCorrupt) || errors.Is(err, ErrImageEvicted) {
		pl.EvictImage()
		return
	}
	tmpl.failures++
	if tmpl.failures >= QuarantineAfter {
		if pl.quarantined == nil {
			pl.quarantined = make(map[int]bool)
		}
		pl.quarantined[tmpl.donorID] = true
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
// pipeline), and the summed virtual cost per path. Scheduling policies and
// the server's /deployments endpoint read it; unlike per-container
// ColdStartStats it survives container removal.
type ColdStartSummary struct {
	// Full and Clone count the cold starts per path.
	Full  int
	Clone int
	// TransferClone counts the subset of Clone whose scale-up first pulled
	// the image from another host (ChargeColdStartDelay with transfer=true);
	// Clone − TransferClone clones served from an image already resident.
	TransferClone int
	// FullCost and CloneCost split the summed virtual duration by path;
	// TotalCost is their sum. TransferCost is the portion of CloneCost spent
	// waiting on cross-host image pulls.
	FullCost     sim.Duration
	CloneCost    sim.Duration
	TransferCost sim.Duration
	TotalCost    sim.Duration
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
	pl.coldSummary.TotalCost += cold.Total
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

// Memory reports the deployment's current memory accounting.
func (pl *Platform) Memory() MemoryStats {
	st := MemoryStats{FramesInUse: pl.Kern.Phys.InUse()}
	phys := pl.Kern.Phys
	var vpns []uint64
	for _, c := range pl.containers {
		if m := c.strat.Manager(); m != nil {
			st.StateStoreBytes += m.StateStoreBytes()
		}
		as := c.inst.Proc.AS
		vpns = as.AppendResidentVPNs(vpns[:0])
		st.ResidentPages += len(vpns)
		for _, vpn := range vpns {
			if pte, ok := as.PTEAt(vpn); ok && phys.Refs(pte.Frame) > 1 {
				st.SharedFramePages++
			}
		}
	}
	return st
}

// serve executes one request synchronously against container c and returns
// its stats. The caller is responsible for scheduling: c must be ready.
func (pl *Platform) serve(c *Container, reqID uint64) (RequestStats, error) {
	return pl.serveAs(c, reqID, "")
}

// InvokeOnce executes a single request from the given caller on the first
// container, advancing virtual time past any in-progress restoration first
// (the request-gating rule of §4.5). It is the entry point for interactive
// front ends such as cmd/ghserve.
func (pl *Platform) InvokeOnce(caller string) (RequestStats, error) {
	if len(pl.containers) == 0 {
		return RequestStats{}, ErrNoContainers
	}
	c := pl.containers[0]
	if c.ready > pl.Engine.Now() {
		pl.Engine.RunUntil(c.ready)
	}
	c.requestsSeq++
	st, err := pl.serveAs(c, c.requestsSeq, caller)
	if err != nil {
		return RequestStats{}, err
	}
	pl.Engine.RunUntil(st.Completed)
	return st, nil
}

// serveAs is serve with an explicit security principal. Under the
// trusted-caller optimization, consecutive requests from the same principal
// skip the rollback between them; a change of principal forces the deferred
// rollback before the new request executes (§4.4).
func (pl *Platform) serveAs(c *Container, reqID uint64, caller string) (RequestStats, error) {
	cost := pl.Kern.Cost
	m := pl.serveMeter
	if m == nil {
		m = sim.NewMeter()
		pl.serveMeter = m
	} else {
		m.Reset()
	}
	req := runtimes.Request{ID: reqID, Caller: caller, SizeKB: pl.prof.InputKB}

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
				return RequestStats{}, fmt.Errorf("%w: deferred rollback on container %d: %w", ErrContainerCrashed, c.ID, err)
			}
			return RequestStats{}, err
		}
		if cleanup.Restored {
			c.notifyRestored(pl)
		}
		c.tainted = false
		preRestore = cleanup.Duration
	}

	// Input path. Interposing strategies (Groundhog, fork) relay the
	// request through the manager: an extra copy in and out (§4.5).
	c.reqBox = req
	inMsg := kernel.Message{Payload: &c.reqBox, Size: pl.prof.InputKB * 1024}
	if c.strat.Interposes() {
		sim.ChargeTo(m, cost.ProxyPerRequest)
		c.stdin.Send(inMsg, m)
		if _, err := c.stdin.Recv(m); err != nil {
			return RequestStats{}, err
		}
	}

	proc, err := c.strat.BeginRequest(m)
	if err != nil {
		return RequestStats{}, err
	}

	// Mid-request crash seam: the function process dies after the request
	// was handed over but before any response exists. The container is torn
	// down (releasing every frame it held, including a fork strategy's
	// in-flight child) and the caller decides whether to retry the request
	// on another container.
	if ferr := pl.Kern.Faults.Fire(faults.SiteRequestCrash); ferr != nil {
		pl.crash(c)
		return RequestStats{}, fmt.Errorf("%w: container %d: %w", ErrContainerCrashed, c.ID, ferr)
	}

	getsBefore, putsBefore := c.inst.StateOps()
	resp := c.inst.InvokeOn(proc, req, m)
	gets, puts := c.inst.StateOps()
	gets, puts = gets-getsBefore, puts-putsBefore

	// Output path. With DirectReturn (§4.5 option 2) the function hands the
	// response straight to the platform and merely signals the manager, so
	// the proxy-side output copy disappears.
	c.respBox = resp
	outMsg := kernel.Message{Payload: &c.respBox, Size: resp.SizeKB * 1024}
	if c.strat.Interposes() && !pl.DirectReturn {
		c.stdout.Send(outMsg, m)
		if _, err := c.stdout.Recv(m); err != nil {
			return RequestStats{}, err
		}
	}

	// The response is now back at the invoker; cleanup happens after —
	// unless the platform trusts the next same-caller request, in which
	// case the rollback is deferred (and possibly elided entirely). A
	// rollback that fails *here* cannot fail the request (the response was
	// already delivered): the container is torn down instead, since it can
	// never isolate another request.
	var cleanup isolation.CleanupResult
	containerLost := false
	if pl.TrustSameCaller && c.strat.CanSkipCleanup() {
		c.tainted = true
		c.lastCaller = caller
	} else {
		var err error
		cleanup, err = c.strat.EndRequest()
		if err != nil {
			if !errors.Is(err, faults.ErrInjected) {
				return RequestStats{}, err
			}
			pl.recovery.RestoreFaults++
			pl.RemoveContainer(c)
			cleanup = isolation.CleanupResult{}
			containerLost = true
		} else {
			if cleanup.Restored {
				c.notifyRestored(pl)
			}
			c.lastCaller = caller
		}
	}

	invoker := m.Total()
	e2e := preRestore + invoker + pl.rng.Jitter(cost.PlatformOverhead, 0.25)
	completed := pl.Engine.Now().Add(preRestore + invoker)
	c.requests++
	c.lastDone = completed
	c.ready = completed.Add(cleanup.Duration)
	return RequestStats{
		Invoker:       invoker,
		E2E:           e2e,
		Cleanup:       cleanup.Duration,
		PreRestore:    preRestore,
		Restore:       cleanup.Restore,
		Restored:      cleanup.Restored,
		Completed:     completed,
		ReadyAgain:    c.ready,
		ContainerLost: containerLost,
		StateGets:     gets,
		StatePuts:     puts,
	}, nil
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
