package runtimes

import (
	"fmt"
	"time"

	"groundhog/internal/sim"
)

// RuntimeProfile is a named packaging overlay applied on top of a function's
// measured Profile, modeling how the *runtime* a function is deployed on —
// not the function's own code — changes its footprint. tinyFaaS deploys the
// same handler as a static binary, a Python script, or a Node.js service,
// and the three differ in exactly the knobs here: how much memory the
// runtime maps, how aggressively it dirties pages per request, and how long
// its initialization runs before the first request. Scaling policies
// therefore face real heterogeneity even across functions with identical
// compute.
//
// The zero RuntimeProfile is the identity: Apply returns the input profile
// unchanged, byte for byte, so loads that never set one behave exactly as
// before the type existed.
type RuntimeProfile struct {
	// Name labels the overlay in results ("" = none applied).
	Name string
	// MemoryFactor scales the profile's mapped footprint (TotalPages);
	// 0 leaves it untouched. Factors below 1 are legal but clamped so the
	// layout invariants (minimum size, dirty+drop fitting the footprint)
	// still hold.
	MemoryFactor float64
	// DirtyFactor scales the per-request write set (DirtyPages); 0 leaves
	// it untouched. The result is clamped so DirtyPages+DropPages never
	// exceeds the (possibly rescaled) footprint.
	DirtyFactor float64
	// WarmupExtra is added to the profile's warm-up initialization phase —
	// interpreter startup, framework imports — charged once per full cold
	// start, before the snapshot is taken.
	WarmupExtra sim.Duration
}

// Built-in overlays following tinyFaaS's runtime split: the same function
// deployed as a static binary, a CPython script, or a Node.js service. The
// binary overlay is the explicit identity (the measured profiles already
// are lean native processes); the interpreted runtimes map more memory,
// dirty more of it per request, and warm up longer.
var (
	RuntimeBinary = RuntimeProfile{Name: "binary"}
	RuntimePython = RuntimeProfile{Name: "python", MemoryFactor: 1.6, DirtyFactor: 1.4, WarmupExtra: 150 * time.Millisecond}
	RuntimeNode   = RuntimeProfile{Name: "node", MemoryFactor: 2.5, DirtyFactor: 1.8, WarmupExtra: 300 * time.Millisecond}
)

// Validate sanity-checks the overlay's knobs.
func (rp RuntimeProfile) Validate() error {
	if rp.MemoryFactor < 0 || rp.DirtyFactor < 0 {
		return fmt.Errorf("runtimes: runtime profile %q: negative scale factor", rp.Name)
	}
	if rp.WarmupExtra < 0 {
		return fmt.Errorf("runtimes: runtime profile %q: negative warm-up extra", rp.Name)
	}
	return nil
}

// Apply derives the deployed profile: footprint and dirty rate rescaled,
// warm-up lengthened. A zero overlay (and a factor of exactly 1 with no
// extra warm-up) returns p unchanged, which is what keeps runs that never
// configure runtime profiles byte-identical to their pre-overlay behavior.
func (rp RuntimeProfile) Apply(p Profile) Profile {
	if rp.MemoryFactor > 0 {
		p.TotalPages = int(float64(p.TotalPages) * rp.MemoryFactor)
		// Keep the layout viable: NewInstance needs a minimum footprint,
		// and the drop window plus write set must still fit.
		if min := 64; p.TotalPages < min {
			p.TotalPages = min
		}
		if p.TotalPages < p.DirtyPages+p.DropPages {
			p.TotalPages = p.DirtyPages + p.DropPages
		}
	}
	if rp.DirtyFactor > 0 {
		p.DirtyPages = int(float64(p.DirtyPages) * rp.DirtyFactor)
		if max := p.TotalPages - p.DropPages; p.DirtyPages > max {
			p.DirtyPages = max
		}
	}
	p.WarmupExtra += rp.WarmupExtra
	return p
}
