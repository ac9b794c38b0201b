// Package cluster generalizes the single-box fleet (internal/trace) to N
// simulated hosts under one virtual clock — the ROADMAP's next order of
// scale, following the shape of faasd's single-box supervisor spread
// tinyFaaS-style across nodes. Each host owns its own physical memory,
// kernel, and per-deployment container pools; a pluggable trace.Placer
// decides where every scale-up lands; and an image Registry layers
// cross-host snapshot distribution (pull dedup, per-frame transfer
// charging, refcount-derived presence) on the PR 4 image lifecycle.
//
// The placement decision is the experiment the paper never reaches: a host
// already holding a deployment's image clones a container in ~1 ms (PR 3),
// a host without it first pays a per-frame image transfer
// (kernel.CostModel.ImageTransferBase/PerFrame), and a cold host runs the
// full Fig. 1 pipeline — so whether clone cheapness favors packing work
// onto image-warm hosts or spreading it for failure headroom is decided by
// the Placer, and measured by the bench-cluster benchmark under host
// failure and drain events.
//
// The cluster has no dispatcher of its own. Queueing, dispatch, reaping,
// policy signals, arrivals and per-function stats are trace.Dispatcher's —
// the same loop trace.Fleet runs on one host — and the Cluster is its
// trace.Provider: it answers "where do this function's pools live" (one
// faas.Platform per host, created on first placement, scanned in host-ID
// order) and "how is one more container obtained" (placer, then the
// join-pull / local-clone / transfer / full-pipeline ladder). What stays
// here is what only a cluster has: hosts and their fault seeds, placement
// eligibility, the Registry and its transfer charges, host fail/drain
// events, and the three-way cold-start and per-host accounting.
package cluster

import (
	"errors"
	"fmt"

	"groundhog/internal/core"
	"groundhog/internal/faas"
	"groundhog/internal/faults"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/runtimes"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
)

// Config parameterizes a cluster run.
type Config struct {
	Cost kernel.CostModel
	Mode isolation.Mode
	Seed uint64

	// Hosts is the number of simulated hosts, each with its own PhysMem,
	// kernel, and container pools.
	Hosts int

	// MaxContainersPerFunction caps each deployment's pool cluster-wide.
	MaxContainersPerFunction int
	// HostCapacity caps one host's total container count across all
	// deployments (0 = unlimited); a full host is ineligible for placement.
	HostCapacity int

	// KeepAlive is the idle TTL after which a warm container is reaped; it
	// also sets the policy tick cadence (KeepAlive/2), as in trace.
	KeepAlive sim.Duration
	// ScaleToZeroAfter, when positive, lets the reaper take a deployment's
	// cluster-wide pool to zero (semantics as trace.Config).
	ScaleToZeroAfter sim.Duration
	// Window is the simulated duration.
	Window sim.Duration

	// Policy is the scaling policy (how many containers, when to reap);
	// nil selects FixedTTL{KeepAlive, ScaleToZeroAfter}.
	Policy trace.Policy
	// Placer decides which host each scale-up lands on; nil selects
	// LocalityAware.
	Placer trace.Placer

	// SLOTargetMs is the fleet-wide p95 target for SLO-aware policies.
	SLOTargetMs float64

	// Store selects the StateStore kind for every deployment.
	Store core.StoreKind

	// Faults arms deterministic fault injection. Each host gets its own
	// injector with the plan's seed perturbed by the host ID, so per-host
	// decision streams are independent but the run is reproducible.
	Faults faults.Plan

	// Events schedules host-level failures at fixed offsets into the
	// window.
	Events []Event
}

// EventKind selects a cluster failure event.
type EventKind string

// The cluster failure events.
const (
	// EventHostFail crashes a host: its containers die, its images and
	// in-flight pulls are released, and it leaves the placement rotation
	// permanently. Queued requests re-dispatch onto the survivors.
	EventHostFail EventKind = "host-fail"
	// EventHostDrain gracefully removes a host (maintenance): same
	// container/image cleanup as a failure, counted separately.
	EventHostDrain EventKind = "host-drain"
)

// Event is one scheduled host failure or drain.
type Event struct {
	// At is the event's offset into the window (0 <= At < Window).
	At sim.Duration
	// Kind selects the event.
	Kind EventKind
	// Host is the targeted host ID.
	Host int
}

// dispatcher is the part of the configuration trace.Dispatcher reads (and
// validates): pool cap, TTLs, window, policy, SLO target, seed. Placement-
// side fields (Cost, Mode, Store) stay with the cluster's own pools; Faults
// rides along for its validation only — each host arms its own injector.
func (c Config) dispatcher() trace.Config {
	return trace.Config{
		Seed:                     c.Seed,
		MaxContainersPerFunction: c.MaxContainersPerFunction,
		KeepAlive:                c.KeepAlive,
		ScaleToZeroAfter:         c.ScaleToZeroAfter,
		Window:                   c.Window,
		Policy:                   c.Policy,
		SLOTargetMs:              c.SLOTargetMs,
		Faults:                   c.Faults,
	}
}

// Validate checks the configuration: the dispatcher's share through
// trace.Config.Validate, then hosts and host events.
func (c Config) Validate() error {
	if c.Hosts < 1 {
		return fmt.Errorf("cluster: need at least one host")
	}
	if c.HostCapacity < 0 {
		return fmt.Errorf("cluster: negative host capacity")
	}
	if err := c.dispatcher().Validate(); err != nil {
		return err
	}
	down := map[int]bool{}
	for _, ev := range c.Events {
		if ev.At < 0 || sim.Time(ev.At) >= sim.Time(c.Window) {
			return fmt.Errorf("cluster: event %q at %v outside the window", ev.Kind, ev.At)
		}
		if ev.Host < 0 || ev.Host >= c.Hosts {
			return fmt.Errorf("cluster: event %q targets unknown host %d", ev.Kind, ev.Host)
		}
		switch ev.Kind {
		case EventHostFail, EventHostDrain:
		default:
			return fmt.Errorf("cluster: unknown event kind %q", ev.Kind)
		}
		down[ev.Host] = true
	}
	if len(down) >= c.Hosts {
		// Failed and drained hosts never return; with every host down the
		// queued requests could never be served and the run would spin on
		// dispatch backoff forever.
		return fmt.Errorf("cluster: events take down all %d hosts; at least one must survive", c.Hosts)
	}
	return nil
}

// Stats aggregates one deployment's cluster-wide outcomes: the dispatcher's
// per-function accounting (embedded — Arrived, Requests, the latency
// recorders, reaper and recovery counters, all summed over the deployment's
// per-host pools) plus what only a cluster has — the clone cold starts split
// by where the image came from, the registry's per-deployment transfer
// accounting, and placements by host.
//
// Arrived == Requests after the drain is the no-request-lost invariant —
// host failures re-dispatch requests, they never drop them. EventCrashes and
// Drained count containers removed by host-fail and host-drain events.
type Stats struct {
	trace.FunctionStats

	// TransferColdStarts and LocalCloneColdStarts partition the embedded
	// CloneColdStarts (and, with FullColdStarts, ColdStarts): a transfer
	// cold start initiated a cross-host image pull before cloning; a local
	// clone cloned from an image (or donor) already on its host — including
	// scale-ups that joined a pull in flight (counted again in
	// TransferDedups). Both record under CloneLatency, pull wait included.
	TransferColdStarts   int
	LocalCloneColdStarts int
	// TransferCost is the portion of ColdStartCost spent on cross-host
	// pulls (initiators only).
	TransferCost sim.Duration
	// Transfers / TransferDedups / TransferFaults count this deployment's
	// pull activity: initiated pulls, scale-ups that joined one in flight,
	// and pulls aborted by an injected transfer fault.
	Transfers      int
	TransferDedups int
	TransferFaults int

	// PlacementsPerHost counts this deployment's container placements by
	// host ID.
	PlacementsPerHost []int
}

// HostStats is one host's view of the run.
type HostStats struct {
	ID      int
	Failed  bool
	Drained bool
	// Placements counts containers placed on this host across all
	// deployments; the three-way split partitions them by cold-start path.
	Placements       int
	FullStarts       int
	TransferStarts   int
	LocalCloneStarts int
	// PeakFrames and EndFrames are this host's physical-memory high-water
	// mark and post-drain residue (exact, from its own PhysMem).
	PeakFrames int
	EndFrames  int
	// ImagesHeld counts deployments whose snapshot image is resident on
	// this host at the end of the run.
	ImagesHeld int
}

// Result is a cluster run's outcome.
type Result struct {
	PerFunction []*Stats
	PerHost     []HostStats
	Registry    RegistryStats
	// PeakFrames is the cluster-wide high-water mark of summed resident
	// frames, sampled at policy ticks (per-host exact peaks are in
	// PerHost — they need not align in time, so their sum bounds this
	// from above). EndFrames is the exact summed residue after the drain;
	// MeanFrames the time-weighted mean over the window.
	PeakFrames int
	EndFrames  int
	MeanFrames float64
}

// Function returns a deployment's stats by display name.
func (r *Result) Function(name string) (*Stats, bool) {
	for _, f := range r.PerFunction {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}

// LostRequests sums Arrived − Requests across deployments — the
// no-request-lost invariant's residual, zero on a correct run.
func (r *Result) LostRequests() int {
	lost := 0
	for _, f := range r.PerFunction {
		lost += f.Arrived - f.Requests
	}
	return lost
}

// host is one simulated machine: its own physical memory and kernel (and
// so its own fault-injection streams), plus its running HostStats — the
// placement counters and the liveness flags. Failed and Drained take the
// host out of the placement rotation permanently; failed hosts crashed
// (EventCrashes), drained hosts were emptied gracefully (Drained).
type host struct {
	kern  *kernel.Kernel
	stats HostStats
}

// alive reports whether the host accepts placements.
func (h *host) alive() bool { return !h.stats.Failed && !h.stats.Drained }

// depState is the cluster's own view of one deployment: where its pools
// live and its placement/transfer accounting. The queue, the policy state
// and the rest of the stats are the dispatcher's.
type depState struct {
	// fn is the deployment's index in the loads — its handle on the
	// dispatcher.
	fn   int
	prof runtimes.Profile
	seed uint64
	// pools is indexed by host ID; a slot is nil until the first placement
	// on that host. The dispatcher scans this very slice (Deploy returns
	// it), so host-ID order is the cluster-wide scan order.
	pools []*faas.Platform
	// stats accumulates the cluster-only counters during the run; its
	// embedded FunctionStats (beyond Name) is filled in by Run.
	stats *Stats
}

// Cluster runs a multi-function workload across N simulated hosts under
// one virtual clock.
type Cluster struct {
	cfg      Config
	placer   trace.Placer
	engine   *sim.Engine
	disp     *trace.Dispatcher
	hosts    []*host
	deps     []*depState
	registry *Registry
}

// New deploys the given functions across cfg.Hosts simulated hosts, one
// pre-warmed container each (placed by the Placer, so even the warm floor
// reflects the placement policy). Clone scale-out is always on: image
// locality is the cluster's whole placement signal. The loads go through
// the dispatcher's validation, runtime overlays and per-function policy
// resolution exactly as a trace.Fleet's do.
func New(cfg Config, loads []trace.FunctionLoad) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cl := &Cluster{
		cfg:      cfg,
		placer:   cfg.Placer,
		engine:   sim.NewEngine(),
		registry: newRegistry(),
	}
	if cl.placer == nil {
		cl.placer = LocalityAware{}
	}
	for id := 0; id < cfg.Hosts; id++ {
		h := &host{kern: kernel.New(cfg.Cost), stats: HostStats{ID: id}}
		if cfg.Faults.Enabled() {
			plan := cfg.Faults
			// Perturb the seed per host: each host's injection streams are
			// independent, but the whole cluster reproduces from one seed.
			plan.Seed = cfg.Faults.Seed ^ (uint64(id+1) * 0x9E3779B97F4A7C15)
			h.kern.Faults = faults.New(plan)
		}
		cl.hosts = append(cl.hosts, h)
	}
	disp, err := trace.NewDispatcher(cl.engine, cfg.dispatcher(), loads, cl)
	if err != nil {
		return nil, err
	}
	cl.disp = disp
	// Pre-warm one container per deployment, placed by the policy under
	// test — only now, because the placer reads the dispatcher's signals.
	for _, ds := range cl.deps {
		views := cl.eligibleHosts(ds)
		if len(views) == 0 {
			return nil, fmt.Errorf("cluster: no eligible host for %s's warm floor", ds.stats.Name)
		}
		hid := views[cl.placer.Place(disp.Signals(ds.fn, 0), views)].Host
		pl, err := cl.pool(ds, hid)
		if err != nil {
			return nil, err
		}
		if _, err := pl.AddWarmContainer(); err != nil {
			return nil, err
		}
		// Pre-warmed containers ran the full pipeline off the clock, as in
		// the faas constructor path; classify them with the full starts.
		cl.notePlacement(ds, hid, placeFull)
	}
	return cl, nil
}

// Deploy implements trace.Provider: it records the deployment and hands the
// dispatcher its host-indexed pool slots, all still empty — pools are
// created on first placement (the warm floor's, in New).
func (cl *Cluster) Deploy(fn int, prof runtimes.Profile, seed uint64) ([]*faas.Platform, error) {
	ds := &depState{
		fn:    fn,
		prof:  prof,
		seed:  seed,
		pools: make([]*faas.Platform, cl.cfg.Hosts),
		stats: &Stats{PlacementsPerHost: make([]int, cl.cfg.Hosts)},
	}
	ds.stats.Name = prof.DisplayName()
	cl.deps = append(cl.deps, ds)
	return ds.pools, nil
}

// pool returns (creating on first use) the deployment's platform on a host.
func (cl *Cluster) pool(ds *depState, hostID int) (*faas.Platform, error) {
	if pl := ds.pools[hostID]; pl != nil {
		return pl, nil
	}
	pl, err := faas.NewPlatformOn(cl.engine, cl.hosts[hostID].kern, ds.prof, cl.cfg.Mode, 0,
		ds.seed+uint64(hostID)*104729)
	if err != nil {
		return nil, err
	}
	pl.Store = cl.cfg.Store
	pl.CloneScaleOut = true
	ds.pools[hostID] = pl
	return pl, nil
}

// hostContainers is a host's total container count across all deployments.
func (cl *Cluster) hostContainers(hostID int) int {
	n := 0
	for _, ds := range cl.deps {
		if pl := ds.pools[hostID]; pl != nil {
			n += len(pl.Containers())
		}
	}
	return n
}

// eligibleHosts builds the placement views for one deployment: live hosts
// with capacity headroom, in host-ID order (HostView.Host maps a view back
// to its host).
func (cl *Cluster) eligibleHosts(ds *depState) []trace.HostView {
	now := cl.engine.Now()
	var views []trace.HostView
	for id, h := range cl.hosts {
		if !h.alive() {
			continue
		}
		total := cl.hostContainers(id)
		if cl.cfg.HostCapacity > 0 && total >= cl.cfg.HostCapacity {
			continue
		}
		v := trace.HostView{
			Host:        id,
			Containers:  total,
			FramesInUse: h.kern.Phys.InUse(),
		}
		_, v.PullInFlight = cl.registry.PendingPull(ds.stats.Name, id, now)
		if pl := ds.pools[id]; pl != nil {
			cs := pl.Containers()
			v.Pool = len(cs)
			for _, c := range cs {
				if c.Ready() > now {
					v.Busy++
				}
			}
			v.Free = v.Pool - v.Busy
			if !v.PullInFlight {
				v.HasImage = pl.HasImage()
				v.CloneReady = pl.CloneSourceReady()
			}
		}
		views = append(views, v)
	}
	return views
}

// findSource returns a live host's platform that can source a transfer of
// the deployment's image: one already holding the exported image, or —
// failing that — one with a pooled clone donor, whose export
// Registry.Pull charges into the first pull (exactly as cloneStart
// amortizes it into the first local clone). Nil when no host can source.
func (cl *Cluster) findSource(ds *depState) *faas.Platform {
	var donor *faas.Platform
	for id, h := range cl.hosts {
		pl := ds.pools[id]
		if !h.alive() || pl == nil {
			continue
		}
		if pl.HasImage() {
			return pl
		}
		if donor == nil && pl.CloneSourceReady() {
			donor = pl
		}
	}
	return donor
}

// placementKind classifies one scale-up's cold-start path.
type placementKind int

const (
	placeFull placementKind = iota
	placeTransfer
	placeLocalClone
)

// notePlacement records one placement in the per-deployment and per-host
// counters.
func (cl *Cluster) notePlacement(ds *depState, hostID int, kind placementKind) {
	hs := &cl.hosts[hostID].stats
	hs.Placements++
	ds.stats.PlacementsPerHost[hostID]++
	switch kind {
	case placeFull:
		hs.FullStarts++
	case placeTransfer:
		hs.TransferStarts++
	case placeLocalClone:
		hs.LocalCloneStarts++
	}
}

// Run executes the configured window and returns the results.
func (cl *Cluster) Run() (*Result, error) {
	for _, ev := range cl.cfg.Events {
		cl.engine.At(sim.Time(ev.At), func() { cl.applyEvent(ev) })
	}
	run, err := cl.disp.Run()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Registry:   cl.registry.Stats(),
		PeakFrames: run.PeakFrames,
		EndFrames:  run.EndFrames,
		MeanFrames: run.MeanFrames,
	}
	// run.PerFunction is already sorted by name; pair each entry with the
	// deployment's cluster-only counters.
	for _, fs := range run.PerFunction {
		for _, ds := range cl.deps {
			if ds.stats.Name == fs.Name {
				ds.stats.FunctionStats = *fs
				res.PerFunction = append(res.PerFunction, ds.stats)
				break
			}
		}
	}
	for id, h := range cl.hosts {
		hs := h.stats
		hs.PeakFrames, hs.EndFrames = h.kern.Phys.Peak(), h.kern.Phys.InUse()
		for _, ds := range cl.deps {
			if pl := ds.pools[id]; pl != nil {
				if pl.HasImage() {
					hs.ImagesHeld++
				}
			}
		}
		res.PerHost = append(res.PerHost, hs)
	}
	return res, nil
}

// FramesInUse implements trace.Provider: live frames summed across all
// hosts.
func (cl *Cluster) FramesInUse() int {
	n := 0
	for _, h := range cl.hosts {
		n += h.kern.Phys.InUse()
	}
	return n
}

// ScaleUp implements trace.Provider: it places one more container for the
// deployment through the Placer and starts it by the cheapest path its host
// allows — join an in-flight pull, clone locally, pull-then-clone, or run
// the full pipeline — folding any transfer wait into the container's cold
// start before handing it to the dispatcher.
func (cl *Cluster) ScaleUp(fn int, now sim.Time) (*faas.Container, error) {
	ds := cl.deps[fn]
	views := cl.eligibleHosts(ds)
	if len(views) == 0 {
		for _, h := range cl.hosts {
			if h.alive() {
				// Every live host is at capacity: the dispatcher backs off.
				return nil, fmt.Errorf("cluster: %s: every live host is full: %w", ds.stats.Name, trace.ErrNoCapacity)
			}
		}
		return nil, fmt.Errorf("cluster: %s: no live hosts left", ds.stats.Name)
	}
	hid := views[cl.placer.Place(cl.disp.Signals(fn, now), views)].Host
	pl, err := cl.pool(ds, hid)
	if err != nil {
		return nil, err
	}

	// Path decision. A pending pull to this host means a template was
	// already adopted — the new container clones from it and waits out
	// the transfer's remainder (dedup: no second charge). Otherwise a
	// local clone source wins; otherwise pull from a host that has the
	// image; otherwise run the full pipeline.
	var extraDelay sim.Duration
	transfer := false
	dedup := false
	var wasted sim.Duration // a faulted pull's spent time, charged to the fallback
	if done, pending := cl.registry.PendingPull(ds.stats.Name, hid, now); pending {
		extraDelay = done.Sub(now)
		dedup = true
	} else if !pl.CloneSourceReady() {
		if src := cl.findSource(ds); src != nil {
			delay, err := cl.registry.Pull(ds.stats.Name, hid, src, pl, cl.hosts[hid].kern, now)
			if err != nil {
				if !errors.Is(err, faults.ErrInjected) {
					return nil, err
				}
				ds.stats.TransferFaults++
				wasted = delay // fall through to the full pipeline
			} else {
				ds.stats.Transfers++
				extraDelay = delay
				transfer = true
			}
		}
	}

	c, err := pl.AddContainer()
	if err != nil {
		return nil, err
	}
	pl.ChargeColdStartDelay(c, extraDelay+wasted, transfer)

	cold := c.ColdStart()
	kind := placeFull
	switch {
	case cold.ClonedFrom < 0: // the full pipeline, or a clone that fell back to it
	case transfer:
		kind = placeTransfer
		ds.stats.TransferColdStarts++
		ds.stats.TransferCost += cold.Transfer
	default:
		kind = placeLocalClone
		ds.stats.LocalCloneColdStarts++
		if dedup {
			ds.stats.TransferDedups++
			cl.registry.NoteDedup()
		}
	}
	cl.notePlacement(ds, hid, kind)
	return c, nil
}

// applyEvent executes one host failure or drain: every deployment's
// containers on the host are removed, its images and pending pulls are
// released, the host leaves the rotation, and every deployment
// re-dispatches so displaced queues recover immediately.
func (cl *Cluster) applyEvent(ev Event) {
	h := cl.hosts[ev.Host]
	if !h.alive() {
		return
	}
	failed := ev.Kind == EventHostFail
	for _, ds := range cl.deps {
		if pl := ds.pools[ev.Host]; pl != nil {
			cl.disp.EvacuatePool(ds.fn, pl, failed)
		}
	}
	cl.registry.DropHost(ev.Host)
	h.stats.Failed, h.stats.Drained = failed, !failed
	cl.disp.DispatchAll()
}

// Teardown removes every container and evicts every image on every host,
// then reports the cluster's remaining in-use frame count — 0 on a
// leak-free run, whatever the fault plan and event schedule did.
func (cl *Cluster) Teardown() int { return cl.disp.Teardown() }

// Registry exposes the cluster's image registry (tests and benchmarks).
func (cl *Cluster) Registry() *Registry { return cl.registry }
