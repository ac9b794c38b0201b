// Package faults provides the deterministic, seed-reproducible fault
// injection layer threaded through the snapshot/clone/fleet stack. A Plan
// names injection sites — snapshot export, clone spawn, the full cold-start
// pipeline, restore, mid-request container crash, snapshot-image frame
// corruption — and arms each by an explicit schedule of attempt ordinals, a
// seeded probability, or both.
//
// Determinism is the package's contract, in two parts. First, every
// probability draw comes from a per-site SplitMix64 stream seeded from
// Plan.Seed and the site name, so the k-th attempt at one site decides the
// same way regardless of how attempts at other sites interleave with it.
// Second, a nil (disarmed) *Injector is a valid receiver for every method
// and does nothing: the seams compiled into kernel/core/faas consume no
// randomness, charge no virtual time, and change no behavior until a plan
// arms them — committed benchmark baselines reproduce byte-identically with
// the seams in place.
package faults

import (
	"errors"
	"fmt"

	"groundhog/internal/sim"
)

// Site names one injection seam in the stack.
type Site string

// The injection sites, one per failure-prone operation of the stack.
const (
	// SiteSnapshotExport aborts a snapshot-image export partway through its
	// frame loop (core.Manager.ExportImage); the partial image's frame
	// references are unwound.
	SiteSnapshotExport Site = "snapshot-export"
	// SiteCloneSpawn aborts a spawn-from-image partway through mapping the
	// image's pages (kernel.SpawnFromImage); the partial address space is
	// released.
	SiteCloneSpawn Site = "clone-spawn"
	// SiteColdStart fails the full Fig. 1 cold-start pipeline after runtime
	// warm-up (faas.Platform cold start); the dead runtime's process is
	// reaped.
	SiteColdStart Site = "cold-start"
	// SiteRestore fails a snapshot restore (core.Manager.Restore) before any
	// state is touched; the platform treats the container as crashed.
	SiteRestore Site = "restore"
	// SiteRequestCrash kills the container mid-request, after input delivery
	// but before a response exists; the request can be retried elsewhere.
	SiteRequestCrash Site = "request-crash"
	// SiteImageCorrupt corrupts an exported snapshot image (bit-rot); the
	// per-image checksum detects it on the next clone attempt.
	SiteImageCorrupt Site = "image-corrupt"
	// SiteImageTransfer aborts a cross-host image pull partway through its
	// frame copy (core.CopyImageTo); the partial copy's frames are unwound
	// on the destination host and the scale-up falls back to the full
	// pipeline. Fired by the destination kernel's injector.
	SiteImageTransfer Site = "image-transfer"
)

// Sites lists every injection site.
var Sites = []Site{
	SiteSnapshotExport,
	SiteCloneSpawn,
	SiteColdStart,
	SiteRestore,
	SiteRequestCrash,
	SiteImageCorrupt,
	SiteImageTransfer,
}

// ErrInjected is the sentinel every injected fault matches via errors.Is;
// recovery code branches on it to distinguish injected (retryable) failures
// from genuine programming errors, which must still propagate.
var ErrInjected = errors.New("faults: injected fault")

// Error is one injected fault: which site fired and on which attempt.
// It matches ErrInjected under errors.Is.
type Error struct {
	Site    Site
	Attempt uint64
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("faults: injected %s fault (attempt %d)", e.Site, e.Attempt)
}

// Is reports that every injected fault matches the ErrInjected sentinel.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// Plan describes what to inject. The zero Plan is disarmed: New returns nil
// and every seam stays zero-cost.
type Plan struct {
	// Seed roots the per-site probability streams; two runs with the same
	// plan (and the same workload) inject identically.
	Seed uint64
	// Rates arms sites probabilistically: each attempt at the site fails
	// with the given probability, in [0, 1). A rate of 1 is rejected by
	// Validate — a site that always fails can never recover, so a fleet
	// would spin forever; use Schedule to fail specific attempts
	// deterministically instead.
	Rates map[Site]float64
	// Schedule arms sites deterministically: the listed 1-based attempt
	// ordinals fail regardless of the probability draw. Schedule and Rates
	// compose — a scheduled ordinal fires even at rate 0.
	Schedule map[Site][]uint64
}

// Enabled reports whether the plan arms anything.
func (p Plan) Enabled() bool { return len(p.Rates) > 0 || len(p.Schedule) > 0 }

// Validate checks the plan: known sites only, rates in [0, 1), schedule
// ordinals 1-based.
func (p Plan) Validate() error {
	known := func(s Site) bool {
		for _, k := range Sites {
			if s == k {
				return true
			}
		}
		return false
	}
	for site, r := range p.Rates {
		if !known(site) {
			return fmt.Errorf("faults: unknown site %q in rates", site)
		}
		if !(r >= 0 && r < 1) { // written so that NaN fails too
			return fmt.Errorf("faults: site %q rate %v outside [0, 1)", site, r)
		}
	}
	for site, attempts := range p.Schedule {
		if !known(site) {
			return fmt.Errorf("faults: unknown site %q in schedule", site)
		}
		for _, a := range attempts {
			if a < 1 {
				return fmt.Errorf("faults: site %q schedule ordinal %d (ordinals are 1-based)", site, a)
			}
		}
	}
	return nil
}

// siteState is one site's decision stream and its attempt count: how many
// times the seam was evaluated.
type siteState struct {
	rng      *sim.Rand
	rate     float64
	schedule map[uint64]bool
	attempts uint64
}

// Injector evaluates a Plan at the injection seams. A nil *Injector is the
// disarmed state: every method is nil-safe and does nothing, so the seams
// call through an always-present pointer without guarding.
type Injector struct {
	sites map[Site]*siteState
}

// New builds an injector for the plan, or nil when the plan arms nothing
// (the zero Plan). The plan should be validated first; New itself does not
// reject bad rates.
func New(plan Plan) *Injector {
	if !plan.Enabled() {
		return nil
	}
	inj := &Injector{sites: make(map[Site]*siteState, len(Sites))}
	for _, site := range Sites {
		st := &siteState{
			rng:  sim.NewRand(plan.Seed ^ siteHash(site)),
			rate: plan.Rates[site],
		}
		if at := plan.Schedule[site]; len(at) > 0 {
			st.schedule = make(map[uint64]bool, len(at))
			for _, a := range at {
				st.schedule[a] = true
			}
		}
		inj.sites[site] = st
	}
	return inj
}

// Armed reports whether injection is active. Safe on a nil receiver.
func (inj *Injector) Armed() bool { return inj != nil }

// Fire evaluates one pass through site: the attempt is counted, and a
// non-nil *Error is returned when this attempt fails — because its ordinal
// is scheduled, or because the site's probability draw fired. When the
// site's rate is positive the draw is made on every attempt (fired or not),
// so the k-th attempt's decision depends only on the seed and k, never on
// other sites' interleaving. Safe on a nil receiver (never fires).
func (inj *Injector) Fire(site Site) error {
	if inj == nil {
		return nil
	}
	st := inj.sites[site]
	if st == nil {
		return nil
	}
	st.attempts++
	fire := false
	if st.rate > 0 {
		fire = st.rng.Float64() < st.rate
	}
	if st.schedule[st.attempts] {
		fire = true
	}
	if !fire {
		return nil
	}
	return &Error{Site: site, Attempt: st.attempts}
}

// Cut returns a deterministic index in [0, n) drawn from site's stream —
// the seams use it to pick how far a partial operation proceeds before the
// injected abort, so the unwind paths are exercised at varying depths.
// Safe on a nil receiver (returns 0).
func (inj *Injector) Cut(site Site, n int) int {
	if inj == nil || n <= 0 {
		return 0
	}
	st := inj.sites[site]
	if st == nil {
		return 0
	}
	return st.rng.Intn(n)
}

// siteHash is FNV-1a over the site name: a stable per-site seed perturbation
// so sites draw from distinct streams under one plan seed.
func siteHash(site Site) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h
}
