package cluster

// Placer decides where a cluster scale-up lands. Place returns an index into
// the live hosts in host-ID order (live > 0; failed and draining hosts are
// filtered out before placement) and must be deterministic given live plus
// the placer's own state (a round-robin cursor is state; a clock or RNG is
// not), so cluster runs reproduce byte-identically.
type Placer interface {
	// Name identifies the placer in results and benchmark output.
	Name() string
	// Place picks the live host for the deployment's next container.
	Place(live int) int
}

// PackFirst places every scale-up on the lowest-ID live host — the
// consolidation-maximizing policy and the cluster's default. The first
// full cold start there captures the clone template, so every later
// scale-up clones locally and no image ever crosses hosts; it moves to the
// next host only when that one fails or drains.
type PackFirst struct{}

// Name implements Placer.
func (PackFirst) Name() string { return "pack-first" }

// Place implements Placer.
func (PackFirst) Place(int) int { return 0 }

// RoundRobin cycles placements across the live hosts regardless of image
// locality — the spread-maximizing strawman. After a pull lands on every
// host each scale-up clones locally, so its cost is front-loaded into N
// transfers. It is the built-in placer that reaches pulls, pull dedup and
// transfer faults.
type RoundRobin struct {
	next int
}

// Name implements Placer.
func (*RoundRobin) Name() string { return "round-robin" }

// Place implements Placer.
func (rr *RoundRobin) Place(live int) int {
	i := rr.next % live
	rr.next++
	return i
}

// Placers returns fresh instances of the built-in placers, in the order the
// cluster benchmark compares them.
func Placers() []Placer {
	return []Placer{PackFirst{}, &RoundRobin{}}
}
