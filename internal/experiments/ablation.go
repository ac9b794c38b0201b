package experiments

import (
	"fmt"

	"groundhog/internal/core"
	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/metrics"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

// ablationProcess builds a bare process with `pages` resident heap pages and
// a manager in the requested options, outside the FaaS stack — the ablations
// isolate the tracking/restore mechanism itself. Releasing the manager and
// exiting the process frees every frame of the kernel.
func ablationProcess(cfg Config, pages int, opts core.Options) (*kernel.Kernel, *kernel.Process, *core.Manager, error) {
	k := kernel.New(cfg.Cost)
	p, err := k.Spawn(kernel.ExecSpec{TextPages: 16, Threads: 1})
	if err != nil {
		return nil, nil, nil, err
	}
	heap := p.AS.HeapBase()
	if _, err := p.AS.Brk(heap + vm.Addr(pages*mem.PageSize)); err != nil {
		return nil, nil, nil, err
	}
	for i := 0; i < pages; i++ {
		p.AS.TouchPage(heap.PageNum() + uint64(i))
	}
	m, err := core.NewManager(k, p, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := m.TakeSnapshot(); err != nil {
		return nil, nil, nil, err
	}
	return k, p, m, nil
}

// AblationUFFD regenerates the §4.3 design comparison: per-request cost
// (in-function tracking faults + restore) under soft-dirty bits vs.
// userfaultfd, as the number of dirtied pages grows. Expected shape: UFFD
// wins only when the dirty set is close to zero (no full pagemap scan);
// soft-dirty wins everywhere else because its per-fault cost is far lower.
func AblationUFFD(cfg Config) (*metrics.Table, error) {
	pages := cfg.MicroMappedPages / 4
	if pages < 2048 {
		pages = 2048
	}
	t := metrics.NewTable(
		fmt.Sprintf("Ablation (§4.3): per-request tracking+restore cost (ms), %d-page heap", pages),
		"dirtied", "soft-dirty", "uffd", "winner")
	for _, dirty := range []int{0, 16, 64, 256, 1024, pages / 4, pages / 2} {
		var cost [2]float64
		for i, tracker := range []core.TrackerKind{core.TrackSoftDirty, core.TrackUffd} {
			opts := core.DefaultOptions()
			opts.Tracker = tracker
			k, p, m, err := ablationProcess(cfg, pages, opts)
			if err != nil {
				return nil, err
			}
			heap := p.AS.HeapBase()
			total := sim.Duration(0)
			for r := 0; r < 3; r++ {
				meter := sim.NewMeter()
				p.AS.SetMeter(meter)
				for i := 0; i < dirty; i++ {
					p.AS.DirtyPage(heap.PageNum()+uint64(i), 1)
				}
				p.AS.SetMeter(nil)
				st, err := m.Restore()
				if err != nil {
					return nil, err
				}
				total += meter.Total() + st.Total
			}
			cost[i] = ms(total) / 3
			m.Release()
			k.Exit(p)
		}
		winner := "soft-dirty"
		if cost[1] < cost[0] {
			winner = "uffd"
		}
		t.AddRow(fmt.Sprintf("%d", dirty),
			fmt.Sprintf("%.3f", cost[0]), fmt.Sprintf("%.3f", cost[1]), winner)
	}
	return t, nil
}

// AblationCoalesce regenerates the restore-copy coalescing ablation behind
// the Fig. 3 (left) slope change: the restore-memory phase cost with and
// without merging contiguous dirty runs, as dirty density grows. Expected
// shape: no difference at low densities (runs are short), growing savings
// at high densities.
func AblationCoalesce(cfg Config) (*metrics.Table, error) {
	pages := cfg.MicroMappedPages / 4
	if pages < 2048 {
		pages = 2048
	}
	t := metrics.NewTable(
		fmt.Sprintf("Ablation (§5.2.2): restore-memory cost (ms) with/without copy coalescing, %d-page heap", pages),
		"dirty%", "coalesced", "uncoalesced", "saving%")
	for _, pct := range []int{10, 30, 50, 60, 70, 90, 100} {
		dirty := pages * pct / 100
		var cost [2]float64
		for i, coalesce := range []bool{true, false} {
			opts := core.DefaultOptions()
			opts.Coalesce = coalesce
			k, p, m, err := ablationProcess(cfg, pages, opts)
			if err != nil {
				return nil, err
			}
			heap := p.AS.HeapBase()
			// Pseudo-random dirty set at the target density: run lengths
			// grow naturally as density rises, which is what coalescing
			// exploits.
			rng := sim.NewRand(cfg.Seed + uint64(pct) + uint64(i))
			seen := 0
			for vpn := 0; vpn < pages && seen < dirty; vpn++ {
				if rng.Intn(pages-vpn) < dirty-seen {
					p.AS.DirtyPage(heap.PageNum()+uint64(vpn), 1)
					seen++
				}
			}
			st, err := m.Restore()
			if err != nil {
				return nil, err
			}
			cost[i] = ms(st.PhaseDurations.Of(core.PhaseRestoreMem))
			m.Release()
			k.Exit(p)
		}
		saving := 0.0
		if cost[1] > 0 {
			saving = 100 * (cost[1] - cost[0]) / cost[1]
		}
		t.AddRow(fmt.Sprintf("%d", pct),
			fmt.Sprintf("%.3f", cost[0]), fmt.Sprintf("%.3f", cost[1]),
			fmt.Sprintf("%.1f", saving))
	}
	return t, nil
}
