package cluster

import (
	"groundhog/internal/trace"
)

// The built-in placers. All three are deterministic: given the same host
// views (and, for round-robin, the same call history) they pick the same
// host, so cluster runs reproduce byte-identically.

// LocalityAware places scale-ups by start-cost class, the tentpole signal:
// a host that can clone right now (it holds a clone template) beats a
// host whose pull is still in flight (joining it costs only the remaining
// wait), which beats a host that must pay a fresh transfer or the full
// Fig. 1 pipeline. Ties break to the host with the fewest busy containers
// for this deployment, then to the lowest host ID.
type LocalityAware struct{}

// Name implements trace.Placer.
func (LocalityAware) Name() string { return "locality" }

// Place implements trace.Placer.
func (LocalityAware) Place(hosts []trace.HostView) int {
	best, bestClass, bestBusy := 0, placementClass(hosts[0]), hosts[0].Busy
	for i := 1; i < len(hosts); i++ {
		c := placementClass(hosts[i])
		if c < bestClass || (c == bestClass && hosts[i].Busy < bestBusy) {
			best, bestClass, bestBusy = i, c, hosts[i].Busy
		}
	}
	return best
}

// placementClass ranks a host by what the next container costs there:
// 0 = clone now, 1 = join an in-flight pull, 2 = transfer or full pipeline.
func placementClass(h trace.HostView) int {
	switch {
	case h.CloneReady:
		return 0
	case h.PullInFlight:
		return 1
	default:
		return 2
	}
}

// RoundRobin cycles placements across the live hosts regardless of
// image locality — the spread-maximizing strawman. After a pull lands on
// every host it behaves like locality (everyone clones), so its cost is
// front-loaded into N transfers.
type RoundRobin struct {
	next int
}

// Name implements trace.Placer.
func (*RoundRobin) Name() string { return "round-robin" }

// Place implements trace.Placer.
func (rr *RoundRobin) Place(hosts []trace.HostView) int {
	i := rr.next % len(hosts)
	rr.next++
	return i
}

// PackFirst places every scale-up on the lowest-ID live host — the
// consolidation-maximizing policy (fewest hosts touched, so the fewest
// images materialized, at the price of no spare warm capacity elsewhere
// when that host fails). It moves to the next host only when that one
// fails or drains.
type PackFirst struct{}

// Name implements trace.Placer.
func (PackFirst) Name() string { return "pack-first" }

// Place implements trace.Placer.
func (PackFirst) Place([]trace.HostView) int { return 0 }

// Placers returns fresh instances of the three built-in placers, in the
// order the cluster benchmark compares them.
func Placers() []trace.Placer {
	return []trace.Placer{LocalityAware{}, &RoundRobin{}, PackFirst{}}
}
