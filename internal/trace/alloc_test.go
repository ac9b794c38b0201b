package trace

import (
	"runtime"
	"testing"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/isolation"
	"groundhog/internal/runtimes"
	"groundhog/internal/sim"
)

// allocGuardLoads is a small churn-free fleet: LangC profiles perform no
// per-request mmap/munmap layout churn, so what remains on the request path
// is the engine itself — arrival scheduling, dispatch, serve, restore,
// stats recording — which must not allocate in steady state.
func allocGuardLoads() []FunctionLoad {
	var loads []FunctionLoad
	for _, name := range []string{"ag-a", "ag-b", "ag-c", "ag-d"} {
		loads = append(loads, FunctionLoad{
			Entry: catalog.Entry{Prof: runtimes.Profile{
				Name:         name,
				Lang:         runtimes.LangC,
				Exec:         2 * time.Millisecond,
				TotalPages:   2000,
				DirtyPages:   100,
				UniformDirty: true,
			}},
			RatePerSec: 500,
		})
	}
	return loads
}

// runAllocGuardFleet runs the churn-free fleet for the given window and
// reports the simulated request count, the heap allocations performed, and
// the GC-settled heap bytes still live at the end (the fleet itself is kept
// alive across the final measurement, so its fixed state — sketches, pools,
// rings — is included).
func runAllocGuardFleet(t *testing.T, window sim.Duration) (requests int, mallocs uint64, heapLive uint64) {
	t.Helper()
	cfg := Config{
		Mode:                     isolation.ModeGH,
		Seed:                     7,
		MaxContainersPerFunction: 4,
		KeepAlive:                DefaultKeepAlive,
		Window:                   window,
		CloneScaleOut:            true,
		SketchStats:              true,
	}
	fl, err := NewFleet(cfg, allocGuardLoads())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	out, err := fl.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range out.PerFunction {
		requests += fs.Requests
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(fl)
	return requests, after.Mallocs - before.Mallocs, after.HeapAlloc - before.HeapAlloc
}

// TestFleetSteadyStateAllocsPerRequest pins the fleet engine's per-request
// heap cost under sketch-backed stats. A single run's figure is dominated
// by one-time growth — pool scale-up, queue rings, sketch buckets, the
// event heap — so the test runs the same fleet at two windows and takes the
// difference: the longer run's extra requests must ride on the state the
// shorter run already built. The per-request deltas pin both transient
// allocations (near zero; a regression to one alloc per request fails
// clearly) and retained bytes (sample-retaining summaries would hold
// 4 recorders x 8 bytes = 32 B/request; the bound is far below that).
func TestFleetSteadyStateAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the differential malloc count is meaningless under -race")
	}
	shortReq, shortMallocs, shortLive := runAllocGuardFleet(t, sim.Duration(1*time.Second))
	longReq, longMallocs, longLive := runAllocGuardFleet(t, sim.Duration(3*time.Second))
	extra := longReq - shortReq
	if extra <= 0 {
		t.Fatalf("windows produced %d and %d requests; need the longer run to serve more", shortReq, longReq)
	}

	// Signed: with nothing allocated per request the two counts differ by a
	// few background mallocs either way.
	mallocsPerReq := float64(int64(longMallocs)-int64(shortMallocs)) / float64(extra)
	if mallocsPerReq > 1.0 {
		t.Errorf("fleet steady state allocated %.3f mallocs/request (short %d, long %d over %d extra requests), want < 1",
			mallocsPerReq, shortMallocs, longMallocs, extra)
	}

	retained := float64(int64(longLive)-int64(shortLive)) / float64(extra)
	if retained > 16 {
		t.Errorf("fleet retained %.1f B/request (short %d B, long %d B over %d extra requests), want < 16 — are recorders retaining samples?",
			retained, shortLive, longLive, extra)
	}
}
