package experiments

import (
	"fmt"
	"time"

	"groundhog/internal/core"
	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/metrics"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

// AblationStateStore evaluates the §5.5 memory optimization: the eager-copy
// StateStore the paper ships vs. the copy-on-write store it sketches
// ("memory overhead could easily be reduced to be proportional to the number
// of dirtied memory pages at the cost of a one-time on-critical-path
// copy-on-write per unique modified page"). Expected shape: CoW snapshots
// are far cheaper and the store's memory tracks the dirty set instead of the
// footprint; the price is a visibly slower first request.
func AblationStateStore(cfg Config) (*metrics.Table, error) {
	pages := cfg.MicroMappedPages / 8
	if pages < 1024 {
		pages = 1024
	}
	dirty := pages / 16

	t := metrics.NewTable(
		fmt.Sprintf("Ablation (§5.5): StateStore implementations, %d-page image, %d pages dirtied/request", pages, dirty),
		"store", "snapshot(ms)", "store MB after 5 reqs", "first req(ms)", "steady req(ms)", "restore(ms)")
	for _, store := range []core.StoreKind{core.StoreCopy, core.StoreCoW} {
		k := kernel.New(cfg.Cost)
		p, err := k.Spawn(kernel.ExecSpec{TextPages: 16, Threads: 1})
		if err != nil {
			return nil, err
		}
		heap := p.AS.HeapBase()
		if _, err := p.AS.Brk(heap + vm.Addr(pages*mem.PageSize)); err != nil {
			return nil, err
		}
		// Non-zero warm contents so the eager store has real bytes to copy.
		for i := 0; i < pages; i++ {
			p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), uint64(i)|1)
		}
		opts := core.DefaultOptions()
		opts.Store = store
		m, err := core.NewManager(k, p, opts)
		if err != nil {
			return nil, err
		}
		snapStats, err := m.TakeSnapshot()
		if err != nil {
			return nil, err
		}

		request := func() (sim.Duration, core.RestoreStats) {
			meter := sim.NewMeter()
			p.AS.SetMeter(meter)
			sim.ChargeTo(meter, time.Millisecond) // compute
			for i := 0; i < dirty; i++ {
				p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), 0xBEEF)
			}
			p.AS.SetMeter(nil)
			st, err2 := m.Restore()
			if err2 != nil {
				panic(err2)
			}
			return meter.Total(), st
		}

		first, _ := request()
		var steady sim.Duration
		var lastRestore core.RestoreStats
		for i := 0; i < 4; i++ {
			d, st := request()
			steady = d
			lastRestore = st
		}
		t.AddRow(store.String(),
			fmt.Sprintf("%.2f", ms(snapStats.Duration)),
			fmt.Sprintf("%.2f", float64(m.StateStoreBytes())/(1<<20)),
			fmt.Sprintf("%.3f", ms(first)),
			fmt.Sprintf("%.3f", ms(steady)),
			fmt.Sprintf("%.3f", ms(lastRestore.Total)))
	}
	return t, nil
}

// relatedWorkCosts are the per-request state-reinitialization costs of the
// snapshot/restore systems the paper compares against in §6, as reported
// there: CRIU-style disk restores take seconds; Catalyzer restores a
// 1 ms hello-world in 232 ms; REAP in 60 ms; a plain container cold start
// costs hundreds of ms. All of these sit ON the critical path when
// repurposed for per-request isolation; Groundhog's restore runs between
// requests.
var relatedWorkCosts = []struct {
	name   string
	onPath sim.Duration
}{
	{"cold-start per request", 0}, // priced from the cost model in RelatedWork
	{"CRIU (disk restore)", 2 * time.Second},
	{"Catalyzer", 232 * time.Millisecond},
	{"REAP", 60 * time.Millisecond},
	{"Groundhog", 0}, // measured restore, off the critical path
	{"Groundhog (GH-NOP floor)", 0},
}

// RelatedWork reproduces the §6 comparison for a 1 ms hello-world function:
// the effective per-request latency when each cold-start-oriented
// snapshot/restore system is repurposed to provide request isolation.
// Expected shape: Groundhog's effective latency stays ≈ the function's own
// 1 ms (restore hidden between requests, ~0.5-1.7 ms off-path), while every
// alternative adds tens to thousands of ms on the critical path.
func RelatedWork(cfg Config) (*metrics.Table, error) {
	const pages = 1000 // a C hello-world footprint (Table 3's smallest)
	_, p, m, err := ablationProcess(cfg, pages, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	heap := p.AS.HeapBase()

	// One hello-world request: 1 ms of compute, a handful of dirty pages.
	exec := func() sim.Duration {
		meter := sim.NewMeter()
		p.AS.SetMeter(meter)
		sim.ChargeTo(meter, time.Millisecond)
		for i := 0; i < 30; i++ {
			p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), 7)
		}
		p.AS.SetMeter(nil)
		return meter.Total()
	}
	execDur := exec()
	restore, err := m.Restore()
	if err != nil {
		return nil, err
	}
	// A language-agnostic cold start: environment, process spawn and the flat
	// RuntimeInitBase, not the faas pipeline a catalog function's container
	// runs (whose runtime init is its language's InitDuration + WarmupExtra).
	coldStart := cfg.Cost.EnvInstantiation + cfg.Cost.SpawnProcess + cfg.Cost.RuntimeInitBase

	t := metrics.NewTable(
		"Related work (§6): per-request effective latency for a 1 ms hello-world under request isolation",
		"system", "critical path (ms)", "off critical path (ms)")
	for _, rw := range relatedWorkCosts {
		onPath := execDur + rw.onPath
		off := sim.Duration(0)
		switch rw.name {
		case "cold-start per request":
			onPath = execDur + coldStart
		case "Groundhog":
			onPath = execDur
			off = restore.Total
		case "Groundhog (GH-NOP floor)":
			onPath = execDur
		}
		t.AddRow(rw.name, fmt.Sprintf("%.2f", ms(onPath)), fmt.Sprintf("%.2f", ms(off)))
	}
	return t, nil
}
