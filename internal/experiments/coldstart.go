package experiments

import (
	"fmt"

	"groundhog/internal/catalog"
	"groundhog/internal/core"
	"groundhog/internal/faas"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/metrics"
	"groundhog/internal/runtimes"
	"groundhog/internal/sim"
)

// ColdStartFleetPoint is one point of the scale-out sweep: the fleet's
// memory accounting at a given container count.
type ColdStartFleetPoint struct {
	Containers       int `json:"containers"`
	FramesInUse      int `json:"frames_in_use"`
	ResidentPages    int `json:"resident_pages"`
	SharedFramePages int `json:"shared_frame_pages"`
	StateStoreBytes  int `json:"state_store_bytes"`
}

// ColdStartBenchResult is the machine-readable summary of the snapshot-clone
// cold-start benchmark, emitted by `ghbench -e bench-coldstart` as one entry
// of BENCH_coldstart.json. The virtual durations compare the full Fig. 1
// pipeline against the clone fast path; the fleet points show physical
// memory growing sub-linearly in container count thanks to cross-container
// frame sharing.
type ColdStartBenchResult struct {
	Benchmark string `json:"benchmark"`
	Mode      string `json:"mode"`
	// Store names the donor's StateStore implementation (§5.5): "copy"
	// materializes the image's frames once from the snapshot's lent pages
	// at export; "cow" exports by referencing the already-frozen frames.
	Store           string                `json:"store"`
	FullColdStartUs float64               `json:"full_cold_start_virtual_us"`
	FirstCloneUs    float64               `json:"first_clone_virtual_us"`
	SteadyCloneUs   float64               `json:"steady_clone_virtual_us"`
	SpeedupX        float64               `json:"full_over_steady_clone_speedup"`
	ClonePages      int                   `json:"clone_pages"`
	Fleet           []ColdStartFleetPoint `json:"fleet"`
	// ExportFrames is the one-time frame cost of materializing the clone
	// image (the delta between the first two fleet samples, dominated by
	// the copy-store export); FramesPerExtra is the marginal per-container
	// growth measured from the first post-clone sample onward, so the two
	// costs are not conflated — a healthy fleet shows FramesPerExtra near
	// zero regardless of the export size.
	ExportFrames     int     `json:"one_time_export_frames"`
	FramesPerExtra   float64 `json:"frames_per_extra_container"`
	LinearFramesHigh int     `json:"frames_if_linear_at_max"`
}

// ColdStartBench scales one deployment out by snapshot cloning: the first
// container pays the full pipeline (with the given StateStore kind), each
// further container is cloned from its snapshot image. counts must be
// ascending; the fleet memory accounting is sampled at each count before any
// requests are served.
func ColdStartBench(cfg Config, prof runtimes.Profile, mode isolation.Mode, store core.StoreKind, counts []int) (ColdStartBenchResult, error) {
	if len(counts) == 0 || counts[0] != 1 {
		return ColdStartBenchResult{}, fmt.Errorf("coldstart: counts must start at 1, got %v", counts)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			return ColdStartBenchResult{}, fmt.Errorf("coldstart: counts must be ascending, got %v", counts)
		}
	}
	// Deploy with zero constructor containers so the store kind is in place
	// before the donor's strategy is built.
	pl, err := faas.NewPlatformOn(sim.NewEngine(), kernel.New(cfg.Cost), prof, mode, 0, cfg.Seed)
	if err != nil {
		return ColdStartBenchResult{}, err
	}
	pl.CloneScaleOut = true
	pl.Store = store
	if _, err := pl.AddContainer(); err != nil {
		return ColdStartBenchResult{}, err
	}

	res := ColdStartBenchResult{
		Benchmark:       prof.DisplayName(),
		Mode:            string(mode),
		Store:           store.String(),
		FullColdStartUs: us(pl.Containers()[0].ColdStart().Total),
	}
	sample := func(n int) {
		m := pl.Memory()
		res.Fleet = append(res.Fleet, ColdStartFleetPoint{
			Containers:       n,
			FramesInUse:      m.FramesInUse,
			ResidentPages:    m.ResidentPages,
			SharedFramePages: m.SharedFramePages,
			StateStoreBytes:  m.StateStoreBytes,
		})
	}
	for _, n := range counts {
		for len(pl.Containers()) < n {
			c, err := pl.AddContainer()
			if err != nil {
				return ColdStartBenchResult{}, err
			}
			cs := c.ColdStart()
			if cs.ClonedFrom < 0 {
				return ColdStartBenchResult{}, fmt.Errorf("coldstart: container %d ran the full pipeline", c.ID)
			}
			if res.FirstCloneUs == 0 {
				res.FirstCloneUs = us(cs.Total)
			}
			res.SteadyCloneUs = us(cs.Total)
		}
		sample(len(pl.Containers()))
	}
	if res.SteadyCloneUs > 0 {
		res.SpeedupX = res.FullColdStartUs / res.SteadyCloneUs
	}
	res.ClonePages = pl.Containers()[0].Instance().ResidentPages()
	pl.Teardown()
	if n := len(res.Fleet); n >= 2 {
		first, scaled, last := res.Fleet[0], res.Fleet[1], res.Fleet[n-1]
		res.ExportFrames = scaled.FramesInUse - first.FramesInUse
		if last.Containers > scaled.Containers {
			res.FramesPerExtra = float64(last.FramesInUse-scaled.FramesInUse) /
				float64(last.Containers-scaled.Containers)
		}
		res.LinearFramesHigh = first.FramesInUse * last.Containers
	}
	return res, nil
}

// ColdStartScaleOut runs the scale-out sweep for the console: one deployment
// scaled by cloning under each StateStore kind (§5.5), with per-count
// cold-start cost and fleet memory, plus the counterfactual linear-growth
// column a platform without frame sharing would show.
func ColdStartScaleOut(cfg Config) (*metrics.Table, []ColdStartBenchResult, error) {
	e, err := catalog.Lookup("get-time (p)")
	if err != nil {
		return nil, nil, err
	}
	counts := []int{1, 4, 16}
	var results []ColdStartBenchResult
	for _, store := range []core.StoreKind{core.StoreCopy, core.StoreCoW} {
		res, err := ColdStartBench(cfg, e.Prof, isolation.ModeGH, store, counts)
		if err != nil {
			return nil, nil, fmt.Errorf("%s store: %w", store, err)
		}
		results = append(results, res)
	}
	r0 := results[0]
	t := metrics.NewTable(
		fmt.Sprintf("Snapshot-clone scale-out: %s under %s (copy store: full cold start %.0f µs, first clone %.0f µs, steady clone %.0f µs, %.0fx)",
			r0.Benchmark, r0.Mode, r0.FullColdStartUs, r0.FirstCloneUs, r0.SteadyCloneUs, r0.SpeedupX),
		"store", "containers", "frames in use", "if linear", "shared pages", "resident pages", "state store (KB)")
	for _, res := range results {
		for _, p := range res.Fleet {
			t.AddRow(
				res.Store,
				fmt.Sprintf("%d", p.Containers),
				fmt.Sprintf("%d", p.FramesInUse),
				fmt.Sprintf("%d", res.Fleet[0].FramesInUse*p.Containers),
				fmt.Sprintf("%d", p.SharedFramePages),
				fmt.Sprintf("%d", p.ResidentPages),
				fmt.Sprintf("%.1f", float64(p.StateStoreBytes)/1024),
			)
		}
	}
	return t, results, nil
}

// us converts a virtual duration to microseconds.
func us(d sim.Duration) float64 { return float64(d) / 1e3 }
