package cluster

import (
	"fmt"

	"groundhog/internal/core"
	"groundhog/internal/faas"
	"groundhog/internal/kernel"
	"groundhog/internal/sim"
)

// Registry tracks cross-host snapshot-image distribution. Image *presence*
// is never stored here: a host holds a deployment's image exactly when its
// platform reports a live exported image (faas.Platform.HasImage), so
// presence rides the image's own lifecycle directly — evicting it
// deregisters the host, re-exporting after a scale-from-zero re-registers
// it, and there is no separate bit to go stale. What the
// registry does own is the pull bookkeeping: which transfers are in flight
// to which hosts (so concurrent scale-ups on one host dedup onto a single
// transfer charge) and the cumulative transfer counters.
type Registry struct {
	// pulls maps an in-flight transfer to its completion time. An entry
	// whose time has passed is pruned on the next lookup.
	pulls map[pullKey]sim.Time
	stats RegistryStats
}

// pullKey identifies one deployment's transfer to one host.
type pullKey struct {
	fn   string
	host int
}

// RegistryStats counts the registry's cumulative transfer activity. Dedups
// and faulted pulls are counted per deployment (Stats.TransferDedups,
// Stats.TransferFaults).
type RegistryStats struct {
	// Transfers counts initiated cross-host image pulls, successful or not.
	Transfers int
}

// newRegistry returns an empty registry.
func newRegistry() *Registry {
	return &Registry{pulls: make(map[pullKey]sim.Time)}
}

// PendingPull reports whether a transfer of fn's image to host is still in
// flight at now, and when it completes. Completed entries are pruned.
func (r *Registry) PendingPull(fn string, host int, now sim.Time) (sim.Time, bool) {
	k := pullKey{fn: fn, host: host}
	done, ok := r.pulls[k]
	if !ok {
		return 0, false
	}
	if done <= now {
		delete(r.pulls, k)
		return 0, false
	}
	return done, true
}

// Pull transfers fn's image from src's host onto dst's host, charging the
// destination kernel's transfer knobs (ImageTransferBase once, then
// ImageTransferPerFrame per distinct frame) plus any source-side export the
// image still needs. On success the copied image is adopted as dst's clone
// template and the pull window [now, now+delay) is recorded for dedup; the
// returned delay is the transfer's virtual duration, which the caller folds
// into the pulling container's cold start.
//
// On an injected transfer fault (faults.SiteImageTransfer on the
// destination kernel) the partial copy's frames are already unwound by
// core.CopyImageTo; the returned delay is the virtual time wasted before
// the abort, so the caller can charge the failed attempt to the fallback
// full cold start.
func (r *Registry) Pull(fn string, host int, src, dst *faas.Platform, dstKern *kernel.Kernel, now sim.Time) (sim.Duration, error) {
	m := sim.NewMeter()
	img, state, err := src.EnsureExportedImage(m)
	if err != nil {
		return m.Total(), fmt.Errorf("cluster: pull source: %w", err)
	}
	r.stats.Transfers++
	copied, err := core.CopyImageTo(dstKern, img, m)
	if err != nil {
		return m.Total(), err
	}
	if err := dst.AdoptTemplate(copied, state); err != nil {
		// Cannot happen for a just-copied live image; surface it rather
		// than leak the copy's holder reference silently.
		copied.Release()
		return m.Total(), err
	}
	delay := m.Total()
	r.pulls[pullKey{fn: fn, host: host}] = now.Add(delay)
	return delay, nil
}

// DropHost forgets every in-flight pull to the host — it failed or is
// draining, so nothing will arrive. The host's adopted images are released
// separately through the platforms' EvictImage.
func (r *Registry) DropHost(host int) {
	for k := range r.pulls {
		if k.host == host {
			delete(r.pulls, k)
		}
	}
}

// Stats returns the cumulative transfer counters.
func (r *Registry) Stats() RegistryStats { return r.stats }
