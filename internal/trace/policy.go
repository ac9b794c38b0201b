package trace

import (
	"fmt"
	"math"
	"time"

	"groundhog/internal/mem"
	"groundhog/internal/sim"
)

// Signals is the per-function observation set a Policy reads at every
// decision point: the dispatcher's queue state, an arrival-rate estimate,
// the observed cost of each cold-start path, the latency distribution
// against the function's SLO target, and the deployment's memory footprint.
// All figures are derived from the simulation's own measurements — a policy
// never sees configuration the provider would not have.
type Signals struct {
	// QueueDepth is the number of requests waiting for a container.
	QueueDepth int
	// PoolSize is the current container count.
	PoolSize int
	// Warming counts containers still cold-starting (added but never yet
	// ready or served) — scale-up capacity already in flight that a
	// ScaleUp answer should not re-add for the same queue.
	Warming int
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
	// snapshot-clone fast path (the deployment holds a clone template).
	CloneReady bool
	// P95E2EMs summarizes recent end-to-end latency (including queueing) in
	// milliseconds, over a sliding window of the last latencyWindow
	// responses so breaches and calm spells both age out; 0 before the
	// first response. MeanServiceMs is the same window's mean invoker
	// (service) time — queueing excluded — the Little's-law multiplicand for
	// warm-floor sizing.
	P95E2EMs      float64
	MeanServiceMs float64
	// SLOTargetMs is the function's p95 E2E target (Config.SLOTargetMs;
	// 0 = no target configured).
	SLOTargetMs float64
	// ResidentPages is the containers' total resident set and
	// StateStoreBytes their managers' materialized snapshot memory, summed
	// over the function's pools.
	ResidentPages   int
	StateStoreBytes int
}

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

// FixedTTL is the classic two-tier reaper as a Policy: tier one removes
// containers above a warm floor of one once idle past KeepAlive; tier two
// (ScaleToZeroAfter > 0) removes the floor after the longer TTL and always
// evicts the snapshot image. A fleet with a nil Config.Policy runs FixedTTL
// built from the config's two TTLs. Its decisions ignore the signals, so the
// dispatcher skips observation for a function whose policy is a FixedTTL.
type FixedTTL struct {
	KeepAlive sim.Duration
	// ScaleToZeroAfter must be at least KeepAlive when positive; zero
	// keeps the warm floor forever.
	ScaleToZeroAfter sim.Duration
}

// validate is the one TTL rule, for Config's TTLs and every resolved
// FixedTTL: no negative TTL, and a positive ScaleToZeroAfter at least KeepAlive.
func (p FixedTTL) validate() error {
	if p.KeepAlive < 0 || p.ScaleToZeroAfter < 0 || (p.ScaleToZeroAfter > 0 && p.ScaleToZeroAfter < p.KeepAlive) {
		return fmt.Errorf("invalid TTLs (keep-alive %v, scale-to-zero %v): none may be negative, and a positive scale-to-zero must be at least the keep-alive",
			p.KeepAlive, p.ScaleToZeroAfter)
	}
	return nil
}

// Name implements Policy.
func (FixedTTL) Name() string { return "fixed-ttl" }

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
// frames.
func (FixedTTL) EvictImage(Signals) bool { return true }

// SLOAware keeps the warm pool no larger than the latency target needs,
// exploiting that snapshot-clone scale-ups are cheap enough to scale to
// zero aggressively. While the observed p95 E2E is over the target it
// refuses to reap and holds a warm floor sized to the offered load; once
// under the target it reaps after an idle TTL proportional to the cheapest
// observed cold-start path — about ten times a ~1 ms clone, so pools
// collapse between bursts — and keeps the snapshot image so the next burst
// revives the pool at clone cost. It never drops the last container while
// revival would cost a full pipeline. The target is the function's
// Signals.SLOTargetMs; with none set the policy treats the SLO as met and
// optimizes memory only.
type SLOAware struct{}

const (
	// reapAfterColdMultiple scales SLOAware's idle TTL: a container is
	// reaped once idle longer than this multiple of the cheapest observed
	// cold-start path (the scale-to-zero tier uses 4x that).
	reapAfterColdMultiple = 10
	// evictBelowRatePerSec is the arrival rate under which SLOAware's
	// scale-to-zero also evicts the snapshot image — effectively only
	// deployments whose traffic has stopped.
	evictBelowRatePerSec = 0.1
	// frameRentUsPerPageSec is CostMinimizing's price of memory: virtual
	// microseconds of cost per resident page held per second.
	frameRentUsPerPageSec = 100
)

// Name implements Policy.
func (SLOAware) Name() string { return "slo-aware" }

func (SLOAware) overTarget(sig Signals) bool {
	return sig.SLOTargetMs > 0 && sig.P95E2EMs > sig.SLOTargetMs
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
	ttl := sim.Duration(coldMs * reapAfterColdMultiple * float64(time.Millisecond))
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
func (SLOAware) EvictImage(sig Signals) bool {
	return sig.ArrivalRatePerSec < evictBelowRatePerSec
}

// CostMinimizing greedily minimizes the provider's bill, pricing physical
// memory as rent: a container stays warm only while the frame-seconds of
// keeping it cost less than the cold start that would replace it, and the
// snapshot image survives scale-to-zero only while holding it until the
// expected next arrival is cheaper than replaying the pipeline. It ignores
// latency entirely — the benchmark's third frontier point.
type CostMinimizing struct{}

// Name implements Policy.
func (CostMinimizing) Name() string { return "cost-min" }

// ScaleUp implements Policy: queueing costs the provider nothing, so scale
// one container at a time.
func (CostMinimizing) ScaleUp(Signals) int { return 1 }

// WarmFloor implements Policy.
func (CostMinimizing) WarmFloor(Signals) int { return 1 }

// breakEven returns the idle duration beyond which a warm container's rent
// exceeds the cold start that would replace it, or 0 when no cold-start
// cost has been observed yet.
func (CostMinimizing) breakEven(sig Signals) sim.Duration {
	pool := sig.PoolSize
	if pool < 1 {
		pool = 1
	}
	pages := sig.ResidentPages / pool
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
	secs := coldUs / (float64(pages) * frameRentUsPerPageSec)
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
func (CostMinimizing) EvictImage(sig Signals) bool {
	if sig.ArrivalRatePerSec <= 0 {
		return true // no observed traffic: the image rents for nothing
	}
	if sig.MeanFullColdMs <= 0 {
		return false
	}
	pages := sig.StateStoreBytes / mem.PageSize
	if pages < 1 {
		pages = 1
	}
	gapSec := 1 / sig.ArrivalRatePerSec
	holdUs := float64(pages) * frameRentUsPerPageSec * gapSec
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
// adaptive policies, which have no settings. The policy benchmark and
// the server's /deployments advice both use this list.
func DefaultPolicies() []Policy {
	return []Policy{
		FixedTTL{KeepAlive: DefaultKeepAlive, ScaleToZeroAfter: DefaultScaleToZeroAfter},
		SLOAware{},
		CostMinimizing{},
	}
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
