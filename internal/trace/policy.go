package trace

import (
	"math"
	"time"

	"groundhog/internal/faas"
	"groundhog/internal/mem"
	"groundhog/internal/sim"
)

// Signals is the per-function observation set a Policy reads at every
// decision point: the dispatcher's queue state, an arrival-rate estimate,
// the observed cost of each cold-start path, the latency distribution
// against the function's SLO target, and the deployment's memory
// accounting (faas.Platform.Memory). All figures are derived from the
// simulation's own measurements — a policy never sees configuration the
// provider would not have.
type Signals struct {
	// Now is the decision's virtual time.
	Now sim.Time
	// QueueDepth is the number of requests waiting for a container.
	QueueDepth int
	// PoolSize is the current container count.
	PoolSize int
	// Warming counts containers still cold-starting (added but never yet
	// ready or served) — scale-up capacity already in flight that a
	// ScaleUp answer should not re-add for the same queue.
	Warming int
	// Requests is the number of requests served so far.
	Requests int
	// ArrivalRatePerSec estimates the function's current arrival rate:
	// the recent arrival window's population over its span to now, so the
	// estimate decays once traffic stops (0 before the first arrival).
	ArrivalRatePerSec float64
	// MeanFullColdMs and MeanCloneColdMs are the observed mean durations of
	// the two cold-start paths in milliseconds (0 = that path has not been
	// taken by a dispatcher scale-up yet).
	MeanFullColdMs  float64
	MeanCloneColdMs float64
	// CloneReady reports whether a scale-up right now would take the
	// snapshot-clone fast path (an exported image, a captured template, or
	// an eligible donor in the pool).
	CloneReady bool
	// MeanE2EMs and P95E2EMs summarize recent end-to-end latency
	// (including queueing) in milliseconds, over a sliding window of the
	// last latencyWindow responses so breaches and calm spells both age
	// out; 0 before the first response. MeanServiceMs is the same window's
	// mean invoker (service) time — queueing excluded — the Little's-law
	// multiplicand for warm-floor sizing.
	MeanE2EMs     float64
	P95E2EMs      float64
	MeanServiceMs float64
	// SLOTargetMs is the function's p95 E2E target (FunctionLoad.SLOTargetMs,
	// falling back to Config.SLOTargetMs; 0 = no target configured).
	SLOTargetMs float64
	// Crashes is the cumulative count of this function's container failures
	// so far — mid-request crashes plus event-driven crash waves. Cheap to
	// maintain, so SignalFree policies see it too.
	Crashes int
	// CrashRatePerSec estimates the recent container-crash rate over the
	// crash observation ring (0 with no recent crashes). A spike tells an
	// adaptive policy to over-provision while a failure burst lasts.
	CrashRatePerSec float64
	// Memory lazily reports the deployment's current memory accounting
	// (FramesInUse is host-wide on shared-kernel fleets). Computing the
	// stats costs a walk over every resident page, so the signal is a
	// memoized thunk: policies that never call Get never pay for the walk,
	// and repeated Gets within one snapshot reuse the first answer.
	Memory MemorySignal
}

// MemorySignal is Signals.Memory: a lazily evaluated, per-snapshot memoized
// view of faas.Platform.Memory. The zero value reports zero stats; use
// StaticMemory to build one from a precomputed MemoryStats (the server's
// advice endpoint, tests).
type MemorySignal struct {
	memo  *memoryMemo
	value faas.MemoryStats
}

// memoryMemo is the shared memo behind a dispatcher-issued MemorySignal; the
// dispatcher resets it at every signal snapshot so a refreshed snapshot
// re-walks. The stats are summed over the function's pools (nil slots are
// pools not created yet).
type memoryMemo struct {
	pools []*faas.Platform
	valid bool
	stats faas.MemoryStats
}

// Get returns the memory stats, computing (and memoizing) them on first use.
func (m MemorySignal) Get() faas.MemoryStats {
	if m.memo == nil {
		return m.value
	}
	if !m.memo.valid {
		var sum faas.MemoryStats
		for _, pl := range m.memo.pools {
			if pl == nil {
				continue
			}
			st := pl.Memory()
			sum.StateStoreBytes += st.StateStoreBytes
			sum.ResidentPages += st.ResidentPages
			sum.SharedFramePages += st.SharedFramePages
			sum.FramesInUse += st.FramesInUse
		}
		m.memo.stats, m.memo.valid = sum, true
	}
	return m.memo.stats
}

// StaticMemory wraps a precomputed MemoryStats as a MemorySignal.
func StaticMemory(st faas.MemoryStats) MemorySignal { return MemorySignal{value: st} }

// Policy is the fleet's scheduling brain: it decides how many containers a
// saturated function adds, which idle containers the reaper removes, how
// large a warm floor to preserve, and whether scale-to-zero also evicts the
// deployment's snapshot image. One Policy instance serves the whole fleet
// and must be deterministic in its Signals — the benchmark gate depends on
// reproducible decisions.
type Policy interface {
	// Name identifies the policy in benchmark output.
	Name() string
	// ScaleUp returns how many containers to add when requests are queued
	// and no container is free. The fleet clamps the answer to the pool's
	// headroom, and forces at least one when the pool is empty (a refusal
	// with no containers would strand the queue forever).
	ScaleUp(sig Signals) int
	// WarmFloor returns the pool size tier-one reaping must preserve
	// (minimum 1; the floor container itself is governed by the
	// scale-to-zero tier, i.e. Reap with last=true).
	WarmFloor(sig Signals) int
	// Reap reports whether an idle container should be removed. idle is
	// how long it has been idle; last is true when removing it would take
	// the pool to zero (the scale-to-zero decision, only consulted with an
	// empty queue).
	Reap(sig Signals, idle sim.Duration, last bool) bool
	// EvictImage reports whether scaling to zero should also drop the
	// deployment's snapshot image. Keeping it costs its materialized
	// frames but makes the next scale-up a cheap clone instead of a full
	// pipeline.
	EvictImage(sig Signals) bool
}

// SignalFree is an optional Policy refinement: implementing it declares
// that every decision ignores the observed signals, letting the fleet skip
// the expensive parts of assembling them (the Memory page walk, the p95
// copy-and-sort) on the dispatch hot path. Scheduling-only fields (Now,
// QueueDepth, PoolSize, Requests, SLOTargetMs) are still populated.
type SignalFree interface {
	SignalFree()
}

// FixedTTL is the classic two-tier reaper as a Policy: tier one removes
// containers above a warm floor of one once idle past KeepAlive; tier two
// (ScaleToZeroAfter > 0) removes the floor after the longer TTL and always
// evicts the snapshot image. It is bit-compatible with the pre-policy
// reaper — a fleet with a nil Config.Policy runs FixedTTL built from the
// config's two TTLs, and existing baselines hold.
type FixedTTL struct {
	KeepAlive sim.Duration
	// ScaleToZeroAfter must be at least KeepAlive when positive; zero
	// keeps the warm floor forever.
	ScaleToZeroAfter sim.Duration
}

// Name implements Policy.
func (FixedTTL) Name() string { return "fixed-ttl" }

// SignalFree marks FixedTTL's decisions as signal-independent: its TTLs
// are configuration, so the fleet skips the observation work entirely.
func (FixedTTL) SignalFree() {}

// ScaleUp implements Policy: the classic dispatcher adds exactly one
// container per saturation event.
func (FixedTTL) ScaleUp(Signals) int { return 1 }

// WarmFloor implements Policy: one warm container, always.
func (FixedTTL) WarmFloor(Signals) int { return 1 }

// Reap implements Policy: pure idle TTLs, no signal feedback.
func (p FixedTTL) Reap(_ Signals, idle sim.Duration, last bool) bool {
	if last {
		return p.ScaleToZeroAfter > 0 && idle > p.ScaleToZeroAfter
	}
	return idle > p.KeepAlive
}

// EvictImage implements Policy: scale-to-zero always returns the image's
// frames (the PR 4 lifecycle).
func (FixedTTL) EvictImage(Signals) bool { return true }

// SLOAware keeps the warm pool no larger than the latency target needs,
// exploiting that snapshot-clone scale-ups are cheap enough to scale to
// zero aggressively. While the observed p95 E2E is over the target it
// refuses to reap and holds a warm floor sized to the offered load; once
// under the target it reaps after an idle TTL proportional to the cheapest
// observed cold-start path — about ten times a ~1 ms clone, so pools
// collapse between bursts — and keeps the snapshot image so the next burst
// revives the pool at clone cost. It never drops the last container while
// revival would cost a full pipeline.
type SLOAware struct {
	// TargetP95Ms overrides the per-function target from the signals
	// (FunctionLoad/Config); 0 uses Signals.SLOTargetMs. With neither set
	// the policy treats the SLO as met and optimizes memory only.
	TargetP95Ms float64
	// ReapAfterColdMultiple scales the idle TTL: a container is reaped
	// once idle longer than this multiple of the cheapest observed
	// cold-start path (default 10; the scale-to-zero tier uses 4x that).
	ReapAfterColdMultiple float64
	// EvictBelowRatePerSec is the arrival rate under which scale-to-zero
	// also evicts the snapshot image (default 0.1/s — effectively only
	// deployments whose traffic has stopped).
	EvictBelowRatePerSec float64
}

// Name implements Policy.
func (SLOAware) Name() string { return "slo-aware" }

func (p SLOAware) target(sig Signals) float64 {
	if p.TargetP95Ms > 0 {
		return p.TargetP95Ms
	}
	return sig.SLOTargetMs
}

func (p SLOAware) overTarget(sig Signals) bool {
	t := p.target(sig)
	return t > 0 && sig.P95E2EMs > t
}

// ScaleUp implements Policy: when the SLO is at risk — or clones make
// extra capacity nearly free — cover the part of the queue not already
// covered by cold starts in flight (re-adding for the same queue on every
// dispatch round would over-provision quadratically in burst size).
// Otherwise scale one at a time, and zero when warming capacity already
// covers the queue.
func (p SLOAware) ScaleUp(sig Signals) int {
	need := sig.QueueDepth - sig.Warming
	if need < 0 {
		need = 0
	}
	if need > 1 && !p.overTarget(sig) && !sig.CloneReady {
		need = 1 // full pipelines are dear: add them one at a time
	}
	return need
}

// WarmFloor implements Policy: over the target, hold enough warm
// containers for the offered load — arrival rate x mean *service* time
// (Little's law; E2E would feed congestion back into the floor and pin it
// high); under the target, the floor is one and the scale-to-zero tier
// takes over.
func (p SLOAware) WarmFloor(sig Signals) int {
	if !p.overTarget(sig) {
		return 1
	}
	need := int(math.Ceil(sig.ArrivalRatePerSec * sig.MeanServiceMs / 1e3))
	if need < 1 {
		need = 1
	}
	return need
}

// Reap implements Policy.
func (p SLOAware) Reap(sig Signals, idle sim.Duration, last bool) bool {
	if p.overTarget(sig) {
		return false // warm capacity is protecting the SLO
	}
	coldMs := sig.MeanFullColdMs
	if sig.CloneReady && sig.MeanCloneColdMs > 0 {
		coldMs = sig.MeanCloneColdMs
	}
	if coldMs <= 0 {
		return false // no cold start observed yet: revival cost unknown
	}
	mult := p.ReapAfterColdMultiple
	if mult <= 0 {
		mult = 10
	}
	ttl := sim.Duration(coldMs * mult * float64(time.Millisecond))
	if last {
		if !sig.CloneReady {
			return false // reviving from zero would replay the pipeline
		}
		ttl *= 4
	}
	return idle > ttl
}

// EvictImage implements Policy: the image is what makes scale-to-zero
// cheap to undo, so it is kept unless traffic has effectively stopped.
func (p SLOAware) EvictImage(sig Signals) bool {
	thr := p.EvictBelowRatePerSec
	if thr <= 0 {
		thr = 0.1
	}
	return sig.ArrivalRatePerSec < thr
}

// CostMinimizing greedily minimizes the provider's bill, pricing physical
// memory as rent: a container stays warm only while the frame-seconds of
// keeping it cost less than the cold start that would replace it, and the
// snapshot image survives scale-to-zero only while holding it until the
// expected next arrival is cheaper than replaying the pipeline. It ignores
// latency entirely — the benchmark's third frontier point.
type CostMinimizing struct {
	// FrameRentUsPerPageSec prices memory: virtual microseconds of cost
	// per resident page held per second (default 100).
	FrameRentUsPerPageSec float64
}

// Name implements Policy.
func (CostMinimizing) Name() string { return "cost-min" }

func (p CostMinimizing) rent() float64 {
	if p.FrameRentUsPerPageSec > 0 {
		return p.FrameRentUsPerPageSec
	}
	return 100
}

// ScaleUp implements Policy: queueing costs the provider nothing, so scale
// one container at a time.
func (CostMinimizing) ScaleUp(Signals) int { return 1 }

// WarmFloor implements Policy.
func (CostMinimizing) WarmFloor(Signals) int { return 1 }

// breakEven returns the idle duration beyond which a warm container's rent
// exceeds the cold start that would replace it, or 0 when no cold-start
// cost has been observed yet.
func (p CostMinimizing) breakEven(sig Signals) sim.Duration {
	pool := sig.PoolSize
	if pool < 1 {
		pool = 1
	}
	pages := sig.Memory.Get().ResidentPages / pool
	if pages < 1 {
		pages = 1
	}
	coldUs := sig.MeanFullColdMs * 1e3
	if sig.CloneReady && sig.MeanCloneColdMs > 0 {
		coldUs = sig.MeanCloneColdMs * 1e3
	}
	if coldUs <= 0 {
		return 0
	}
	secs := coldUs / (float64(pages) * p.rent())
	return sim.Duration(secs * float64(time.Second))
}

// Reap implements Policy.
func (p CostMinimizing) Reap(sig Signals, idle sim.Duration, last bool) bool {
	be := p.breakEven(sig)
	if be <= 0 {
		return false
	}
	return idle > be
}

// EvictImage implements Policy: evict when holding the image's pages until
// the expected next arrival (1/rate) rents for more than the full-pipeline
// cost the eviction re-imposes. An unobserved pipeline cost (clone-only
// fleets never replayed it) keeps the image — the replay this eviction
// would re-impose is of unknown (and known-to-be-large) cost, mirroring
// Reap's unknown-cost guard.
func (p CostMinimizing) EvictImage(sig Signals) bool {
	if sig.ArrivalRatePerSec <= 0 {
		return true // no observed traffic: the image rents for nothing
	}
	if sig.MeanFullColdMs <= 0 {
		return false
	}
	pages := sig.Memory.Get().StateStoreBytes / mem.PageSize
	if pages < 1 {
		pages = 1
	}
	gapSec := 1 / sig.ArrivalRatePerSec
	holdUs := float64(pages) * p.rent() * gapSec
	savingUs := (sig.MeanFullColdMs - sig.MeanCloneColdMs) * 1e3
	return holdUs > savingUs
}

// DefaultKeepAlive and DefaultScaleToZeroAfter are the classic reaper's
// benchmark operating point: the fleet and policy benchmarks configure
// their FixedTTL runs from these, and DefaultPolicies uses them, so the
// benchmarks and the server's /deployments advice cannot drift apart.
const (
	DefaultKeepAlive        = 600 * time.Millisecond
	DefaultScaleToZeroAfter = 1800 * time.Millisecond
)

// DefaultPolicies returns the three built-in policies at the policy
// benchmark's operating point: FixedTTL on the Default TTLs above, and the
// adaptive policies on their documented defaults. The policy benchmark and
// the server's /deployments advice both use this list.
func DefaultPolicies() []Policy {
	return []Policy{
		FixedTTL{KeepAlive: DefaultKeepAlive, ScaleToZeroAfter: DefaultScaleToZeroAfter},
		SLOAware{},
		CostMinimizing{},
	}
}

// HostView is one host's placement-relevant state as the cluster scheduler
// sees it at a scale-up decision: image locality (the tentpole signal — a
// host with the image clones in ~1 ms, one without it pays a transfer or the
// full pipeline), pool occupancy, and memory pressure. The cluster builds
// one HostView per eligible host (failed and draining hosts are filtered
// out before placement) and hands the slice to a Placer.
type HostView struct {
	// Host is the host's cluster-wide ID.
	Host int
	// HasImage reports whether the deployment's snapshot image is resident
	// on this host (its platform holds a live exported image).
	HasImage bool
	// CloneReady reports whether a scale-up on this host would take the
	// clone fast path right now — an image is resident or an eligible donor
	// is pooled (faas.Platform.CloneSourceReady).
	CloneReady bool
	// Pool is the deployment's container count on this host; Busy is how
	// many of those are mid-request, Free = Pool − Busy.
	Pool int
	Busy int
	Free int
	// Containers is the host's total container count across all
	// deployments — the packing signal.
	Containers int
	// FramesInUse is the host's physical-memory occupancy in frames.
	FramesInUse int
	// PullInFlight reports whether an image transfer to this host is
	// already underway for this deployment; placing here joins that pull
	// (dedup) instead of starting a second one.
	PullInFlight bool
}

// Placer decides where a cluster scale-up lands. Place returns an index
// into hosts — which is never empty and contains only eligible hosts — and
// must be deterministic given its inputs plus the placer's own state (a
// round-robin cursor is state; a clock or RNG is not), so cluster runs
// reproduce byte-identically.
type Placer interface {
	// Name identifies the placer in results and benchmark output.
	Name() string
	// Place picks hosts[i] for the next container of the deployment
	// described by sig.
	Place(sig Signals, hosts []HostView) int
}

// Advice is one policy's decision set against an observed signal snapshot —
// what it would do right now. The server's /deployments endpoint reports it
// per deployment so the policies' behavior can be inspected without running
// a fleet simulation.
type Advice struct {
	Policy string `json:"policy"`
	// WarmFloor is the pool size the policy would preserve.
	WarmFloor int `json:"warm_floor"`
	// ScaleUp is how many containers the policy would add if requests were
	// queued with none free.
	ScaleUp int `json:"scale_up"`
	// ReapIdleNow reports whether a container idle for the supplied
	// duration would be reaped (above the floor); ScaleToZeroNow is the
	// same question for the last container.
	ReapIdleNow    bool `json:"reap_idle_now"`
	ScaleToZeroNow bool `json:"scale_to_zero_now"`
	// EvictImage reports whether scale-to-zero would drop the snapshot
	// image.
	EvictImage bool `json:"evict_image"`
}

// Advise evaluates each policy against one signal snapshot, with idle as
// the candidate container's current idle time.
func Advise(sig Signals, idle sim.Duration, policies ...Policy) []Advice {
	out := make([]Advice, 0, len(policies))
	for _, p := range policies {
		out = append(out, Advice{
			Policy:         p.Name(),
			WarmFloor:      p.WarmFloor(sig),
			ScaleUp:        p.ScaleUp(sig),
			ReapIdleNow:    p.Reap(sig, idle, false),
			ScaleToZeroNow: p.Reap(sig, idle, true),
			EvictImage:     p.EvictImage(sig),
		})
	}
	return out
}
