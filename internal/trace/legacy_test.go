package trace

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/core"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/sim"
)

// legacyReapIdle is a verbatim copy of the pre-policy two-tier reaper
// (PR 4): tier one removes containers above a warm floor of one once idle
// past keepAlive, re-reading the pool per removal; tier two removes the
// floor after scaleToZeroAfter and evicts the snapshot image. It is the
// reference the FixedTTL policy must stay bit-compatible with.
func legacyReapIdle(f *Fleet, fs *fnState, now sim.Time, keepAlive, scaleToZeroAfter sim.Duration) {
	for len(fs.pools[0].Containers()) > 1 {
		removed := false
		for _, c := range fs.pools[0].Containers() {
			if c.Ready() > now {
				continue
			}
			idleSince := c.LastDone()
			if idleSince == 0 {
				idleSince = c.Ready()
			}
			if now.Sub(idleSince) > keepAlive {
				fs.pools[0].RemoveContainer(c)
				fs.stats.Reaped++
				removed = true
				break
			}
		}
		if !removed {
			return
		}
	}

	if scaleToZeroAfter <= 0 || len(fs.queue) > 0 {
		return
	}
	cs := fs.pools[0].Containers()
	if len(cs) != 1 {
		return
	}
	c := cs[0]
	if c.Ready() > now || now.Sub(c.Ready()) <= scaleToZeroAfter {
		return
	}
	fs.pools[0].RemoveContainer(c)
	fs.stats.Reaped++
	fs.stats.ScaledToZero++
	if fs.pools[0].EvictImage() {
		fs.stats.ImagesEvicted++
	}
}

// benchFleetLoads is the bench-fleet quick scenario's function mix (the
// first three entries of the experiments fleetMix, same rates and
// burstiness), rebuilt here because trace cannot import experiments.
func benchFleetLoads(t *testing.T) []FunctionLoad {
	t.Helper()
	mix := []struct {
		name        string
		rate, burst float64
	}{
		{"get-time (p)", 40, 4},
		{"version (p)", 25, 4},
		{"md2html (p)", 12, 2},
	}
	var loads []FunctionLoad
	for _, m := range mix {
		e, err := catalog.Lookup(m.name)
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, FunctionLoad{Entry: e, RatePerSec: m.rate, Burstiness: m.burst})
	}
	return loads
}

// benchFleetConfig mirrors the bench-fleet scenario's fleet shape
// (experiments.fleetBenchConfig at the quick window).
func benchFleetConfig(mode isolation.Mode, store core.StoreKind, clone bool) Config {
	return Config{
		Cost:                     kernel.Default(),
		Mode:                     mode,
		Seed:                     1,
		MaxContainersPerFunction: 4,
		KeepAlive:                600 * time.Millisecond,
		ScaleToZeroAfter:         1800 * time.Millisecond,
		Window:                   2 * time.Second,
		CloneScaleOut:            clone,
		Store:                    store,
	}
}

// TestFixedTTLMatchesLegacyReaper is the policy-equivalence guard: on the
// bench-fleet scenario, under both state stores and both scale-out modes, a
// fleet running the default FixedTTL policy produces a bit-identical
// trace.Result — every counter (Reaped, ScaledToZero, ImagesEvicted,
// EndFrames), every latency sample, and the frame integral — to the same
// fleet driven by the verbatim pre-policy reaper. The policy refactor must
// not move the baselines.
func TestFixedTTLMatchesLegacyReaper(t *testing.T) {
	for _, store := range []core.StoreKind{core.StoreCopy, core.StoreCoW} {
		for _, clone := range []bool{false, true} {
			t.Run(fmt.Sprintf("store=%s/clone=%v", store, clone), func(t *testing.T) {
				run := func(legacy bool) *Result {
					cfg := benchFleetConfig(isolation.ModeGH, store, clone)
					f, err := NewFleet(cfg, benchFleetLoads(t))
					if err != nil {
						t.Fatal(err)
					}
					if legacy {
						f.reapOverride = func(fs *fnState, now sim.Time) {
							legacyReapIdle(f, fs, now, cfg.KeepAlive, cfg.ScaleToZeroAfter)
						}
					}
					res, err := f.Run()
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				policy, legacy := run(false), run(true)
				if !reflect.DeepEqual(policy, legacy) {
					t.Fatalf("FixedTTL diverges from the legacy reaper:\npolicy: %+v\nlegacy: %+v",
						summarize(policy), summarize(legacy))
				}
			})
		}
	}
}

// summarize renders a Result compactly for divergence reports.
func summarize(r *Result) string {
	s := fmt.Sprintf("peak=%d end=%d mean=%.1f", r.PeakFrames, r.EndFrames, r.MeanFrames)
	for _, fs := range r.PerFunction {
		s += fmt.Sprintf(" [%s req=%d cold=%d/%d reaped=%d zero=%d evicted=%d e2eN=%d]",
			fs.Name, fs.Requests, fs.FullColdStarts, fs.CloneColdStarts,
			fs.Reaped, fs.ScaledToZero, fs.ImagesEvicted, fs.E2E.N())
	}
	return s
}
