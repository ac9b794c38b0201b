// Package benchscenario defines the canonical steady-state restore scenarios
// shared by the core package's zero-allocation guard tests/benchmarks and the
// experiments layer's BENCH_restore.json microbenchmark, so the two always
// measure the same workload. SteadyState parameterizes over core.Options:
// the bench-restore experiment runs it once per tracker, and the core guards
// pin each tracker and store they cover.
package benchscenario

import (
	"groundhog/internal/core"
	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/vm"
)

// SteadyState builds the steady-state restore scenario: a snapshotted
// process whose requests dirty a fixed set of snapshot-resident pages
// without changing the memory layout — the regime of Fig. 3 (left) and the
// one the restore path's zero-allocation guarantee covers. The returned
// request func dirties dirtyPages pages (half one contiguous run, half
// scattered, exercising both the coalesced and per-run restore paths) with
// non-zero values, so steady-state restores copy bytes rather than flipping
// frames between the lazy-zero and materialized states. One warm-up
// dirty+restore cycle has already run, sizing the manager's scratch buffers.
func SteadyState(cost kernel.CostModel, heapPages, dirtyPages int, opts core.Options) (*kernel.Process, *core.Manager, func(), error) {
	k := kernel.New(cost)
	p, err := k.Spawn(kernel.ExecSpec{TextPages: 8, DataPages: 16, Threads: 2})
	if err != nil {
		return nil, nil, nil, err
	}
	heap := p.AS.HeapBase()
	if _, err := p.AS.Brk(heap + vm.Addr(heapPages*mem.PageSize)); err != nil {
		return nil, nil, nil, err
	}
	for i := 0; i < heapPages; i++ {
		p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), 0xC0FFEE00+uint64(i))
	}
	m, err := core.NewManager(k, p, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := m.TakeSnapshot(); err != nil {
		return nil, nil, nil, err
	}
	request := func() {
		half := dirtyPages / 2
		for i := 0; i < half; i++ {
			p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), 0xBEEF)
		}
		for i := half; i < dirtyPages; i++ {
			p.AS.WriteWord(heap+vm.Addr(((i-half)*3+half)*mem.PageSize), 0xBEEF)
		}
	}
	request()
	if _, err := m.Restore(); err != nil {
		return nil, nil, nil, err
	}
	return p, m, request, nil
}
