package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"time"

	"groundhog/internal/catalog"
	"groundhog/internal/cluster"
	"groundhog/internal/core"
	"groundhog/internal/faas"
	"groundhog/internal/gateway"
	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/metrics"
	"groundhog/internal/procfs"
	"groundhog/internal/ptrace"
	"groundhog/internal/runtimes"
	"groundhog/internal/server"
	"groundhog/internal/sim"
	"groundhog/internal/trace"
	"groundhog/internal/vm"
)

// The per-layer ladder. Tracing inside the program is a later change, so
// the harness replays one request of the workload's representative function
// at every layer boundary separately: each rung times calls into one
// layer's public functions, between two probes, and records one span per
// rung. A rung's self time is its time minus the time of the rung below it.

// perLayer lists every ladder metric in print order. "better" is the
// direction an optimisation moves it; counts that must not move at all are
// marked lower (any rise is a change of behaviour).
var perLayer = []metricDef{
	{name: "sim.event.ns", unit: "ns", better: "lower"},
	{name: "sim.event.allocs", unit: "count", better: "lower"},
	{name: "metrics.sketch_add.ns", unit: "ns", better: "lower"},
	{name: "mem.copy_run.ns_per_page", unit: "ns", better: "lower"},
	{name: "mem.restore_run.ns_per_page", unit: "ns", better: "lower"},
	{name: "mem.clone_unref.ns", unit: "ns", better: "lower"},
	{name: "vm.write_word.hit.ns", unit: "ns", better: "lower"},
	{name: "vm.write_word.softdirty.ns", unit: "ns", better: "lower"},
	{name: "vm.write_word.cow.ns", unit: "ns", better: "lower"},
	{name: "vm.write_word.demand_zero.ns", unit: "ns", better: "lower"},
	{name: "vm.clear_soft_dirty.ns", unit: "ns", better: "lower"},
	{name: "vm.poke_frame_run.ns_per_page", unit: "ns", better: "lower"},
	{name: "vm.mmap_munmap.ns", unit: "ns", better: "lower"},
	{name: "vm.faults_per_req", unit: "count", better: "lower"},
	{name: "procfs.maps.ns", unit: "ns", better: "lower"},
	{name: "procfs.pagemap.ns_per_page", unit: "ns", better: "lower"},
	{name: "ptrace.seize_detach.ns", unit: "ns", better: "lower"},
	{name: "kernel.spawn_exit.ns", unit: "ns", better: "lower"},
	{name: "kernel.spawn_from_image.ns", unit: "ns", better: "lower"},
	{name: "runtimes.warm_up.ns", unit: "ns", better: "lower"},
	{name: "runtimes.invoke_on.ns", unit: "ns", better: "lower"},
	{name: "runtimes.invoke_on.allocs", unit: "count", better: "lower"},
	{name: "core.take_snapshot.ns", unit: "ns", better: "lower"},
	{name: "core.restore.ns", unit: "ns", better: "lower"},
	{name: "core.restore.allocs", unit: "count", better: "lower"},
	{name: "core.restore.restored_pages", unit: "count", better: "lower"},
	{name: "core.restore.mapped_pages", unit: "count", better: "lower"},
	{name: "core.restore.layout_ops", unit: "count", better: "lower"},
	{name: "core.export_image.ns", unit: "ns", better: "lower"},
	{name: "core.clone_manager.ns", unit: "ns", better: "lower"},
	{name: "core.copy_image_to.ns", unit: "ns", better: "lower"},
	{name: "isolation.begin_end.self_ns", unit: "ns", better: "lower"},
	{name: "faas.invoke_once.ns", unit: "ns", better: "lower"},
	{name: "faas.invoke_once.allocs", unit: "count", better: "lower"},
	{name: "faas.invoke_once.self_ns", unit: "ns", better: "lower"},
	{name: "faas.cold_start.full.ns", unit: "ns", better: "lower"},
	{name: "faas.cold_start.clone.ns", unit: "ns", better: "lower"},
	{name: "trace.new_fleet.ns", unit: "ns", better: "lower"},
	{name: "trace.fleet.ns_per_req", unit: "ns", better: "lower"},
	{name: "trace.dispatch.self_ns", unit: "ns", better: "lower"},
	{name: "trace.cold_starts_per_kreq", unit: "count", better: "lower"},
	{name: "cluster.new.ns", unit: "ns", better: "lower"},
	{name: "cluster.run.ns_per_req", unit: "ns", better: "lower"},
	{name: "cluster.dispatch.self_ns", unit: "ns", better: "lower"},
	{name: "cluster.cold_starts_per_kreq", unit: "count", better: "lower"},
	{name: "cluster.transfers_per_kreq", unit: "count", better: "lower"},
	{name: "server.invoke.ns", unit: "ns", better: "lower"},
	{name: "server.invoke.allocs", unit: "count", better: "lower"},
	{name: "server.invoke.self_ns", unit: "ns", better: "lower"},
	{name: "server.invoke.wait_ns", unit: "ns", better: "lower"},
	{name: "gateway.binary.ns", unit: "ns", better: "lower"},
	{name: "gateway.binary.allocs", unit: "count", better: "lower"},
	{name: "gateway.binary.self_ns", unit: "ns", better: "lower"},
	{name: "gateway.http.ns", unit: "ns", better: "lower"},
	{name: "gateway.http.allocs", unit: "count", better: "lower"},
	{name: "gateway.http.self_ns", unit: "ns", better: "lower"},
	{name: "gateway.shed.ns", unit: "ns", better: "lower"},
	{name: "gateway.rejected", unit: "count", better: "lower"},
	{name: "transport.tcp.self_ns", unit: "ns", better: "lower"},
	{name: "harness.calib_ms", unit: "ms", better: "lower"},
	{name: "harness.calib_spread", unit: "ratio", better: "lower"},
	{name: "harness.pacer_late_us", unit: "us", better: "lower"},
	{name: "harness.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "harness.ladder_coverage", unit: "ratio", better: "higher"},
}

// rungParent is the span tree: the rung one layer up from each rung.
var rungParent = map[string]string{
	"gateway.binary": "transport.tcp", "server.invoke": "gateway.binary", "gateway.http": "", "gateway.shed": "gateway.http",
	"faas.invoke_once": "server.invoke", "isolation.request": "faas.invoke_once",
	"core.request": "isolation.request", "runtimes.invoke_on": "core.request", "core.restore": "core.request",
	"trace.fleet": "", "trace.new_fleet": "trace.fleet", "cluster.run": "", "cluster.new": "cluster.run",
	"faas.cold_start.full": "trace.fleet", "faas.cold_start.clone": "trace.fleet",
	"runtimes.warm_up": "faas.cold_start.full", "core.take_snapshot": "faas.cold_start.full",
	"core.export_image": "faas.cold_start.clone", "core.clone_manager": "faas.cold_start.clone", "core.copy_image_to": "cluster.run",
	"kernel.spawn_exit": "runtimes.warm_up", "kernel.spawn_from_image": "core.clone_manager",
	"procfs.maps": "core.restore", "procfs.pagemap": "core.restore", "ptrace.seize_detach": "core.restore",
	"vm.clear_soft_dirty": "core.restore", "vm.poke_frame_run": "core.restore", "mem.copy_run": "vm.poke_frame_run",
	"mem.restore_run": "core.restore", "mem.clone_unref": "vm.write_word.cow",
	"vm.write_word.hit": "runtimes.invoke_on", "vm.write_word.softdirty": "runtimes.invoke_on",
	"vm.write_word.cow": "runtimes.invoke_on", "vm.write_word.demand_zero": "runtimes.invoke_on", "vm.mmap_munmap": "runtimes.invoke_on",
	"sim.event": "trace.fleet", "metrics.sketch_add": "trace.fleet",
}

// step is one operation of a rung's cycle. Unnamed steps are untimed
// housekeeping between timed ones (a restore after an invoke, a teardown
// after a cold start); ops is how many calls one execution makes (1 if 0).
type step struct {
	name   string
	fn     func()
	ops    int
	allocs bool // also report heap objects allocated per call
}

type ladder struct {
	p       *prober
	spans   *spanLog
	perRung time.Duration
	last    float64 // latest probe's compute kernel, ms
	m       map[string]float64
	spanID  map[string]int
	errs    []string
}

func (ld *ladder) check(err error) bool {
	if err != nil {
		ld.errs = append(ld.errs, err.Error())
		return false
	}
	return true
}

// cycle repeats the steps in order until the timed ones add up to perRung
// each, then reports each named step's ns per call at reference speed
// (under name+".ns") and, where asked, its allocations per call. Steps
// whose difference is reported as a self time share a cycle, so both sides
// of the subtraction saw the same machine.
func (ld *ladder) cycle(steps ...step) {
	sums := make([]time.Duration, len(steps))
	var timed, budget time.Duration
	for _, s := range steps {
		if s.name != "" {
			budget += ld.perRung
		}
	}
	start := time.Now()
	n := 0
	for n == 0 || (timed < budget && time.Since(start) < 3*budget) {
		for i, s := range steps {
			if s.name == "" {
				s.fn()
				continue
			}
			t0 := time.Now()
			s.fn()
			d := time.Since(t0)
			sums[i] += d
			timed += d
		}
		n++
	}
	after := ld.p.probe().comp
	sc := scale(ld.last, after)
	ld.last = after
	for i, s := range steps {
		if s.name == "" {
			continue
		}
		calls := n * max(s.ops, 1)
		ld.m[s.name+".ns"] = float64(sums[i]) / float64(calls) * sc
		ld.spanID[s.name] = ld.spans.add(ld.spanID[rungParent[s.name]], 0, s.name, start, start.Add(sums[i]), calls)
	}
	// Allocations are counted in extra, untimed rounds: reading the
	// allocator's counters stops the world.
	rounds := 20
	if timed/time.Duration(n) > 10*time.Millisecond {
		rounds = 2
	}
	totals := make([]uint64, len(steps))
	for r := 0; r < rounds; r++ {
		for i, s := range steps {
			if !s.allocs {
				s.fn()
				continue
			}
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			s.fn()
			runtime.ReadMemStats(&b)
			totals[i] += b.Mallocs - a.Mallocs
		}
	}
	for i, s := range steps {
		if s.allocs {
			ld.m[s.name+".allocs"] = float64(totals[i]) / float64(rounds*max(s.ops, 1))
		}
	}
}

// mallocs counts heap objects allocated per call of op, running prep
// (uncounted) after each call.
func mallocs(rounds int, op, prep func()) float64 {
	var total uint64
	for i := 0; i < rounds; i++ {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		op()
		runtime.ReadMemStats(&b)
		total += b.Mallocs - a.Mallocs
		prep()
	}
	return float64(total) / float64(rounds)
}

// run measures every rung for prof and stores the results in ld.m.
func (ld *ladder) run(workload string, prof runtimes.Profile) {
	ld.check(ld.p.weigh(0)) // the rungs are computation; the one socket rung is reported as the floor it is
	ld.last = ld.p.probe().comp
	cost := kernel.Default()
	ld.substrate(cost)
	ld.function(cost, prof)
	ld.simulators(cost, workload, prof)
	ld.serving(prof)

	m := ld.m
	m["isolation.begin_end.self_ns"] = m["isolation.request.ns"] - m["core.request.ns"]
	m["faas.invoke_once.self_ns"] = m["faas.invoke_once.ns"] - m["isolation.request.ns"]
	m["trace.dispatch.self_ns"] = m["trace.fleet.ns_per_req"] - m["faas.invoke_once.ns"]
	m["cluster.dispatch.self_ns"] = m["cluster.run.ns_per_req"] - m["faas.invoke_once.ns"]
	m["server.invoke.self_ns"] = m["server.invoke.ns"] - m["server.fn_invoke_once.ns"]
	m["gateway.binary.self_ns"] = m["gateway.binary.ns"] - m["server.invoke.ns"]
	m["gateway.http.self_ns"] = m["gateway.http.ns"] - m["server.invoke.ns"]
	m["transport.tcp.self_ns"] = m["transport.tcp.ns"] - m["gateway.binary.ns"]
}

// substrate times the layers below a function: sim, metrics, mem, vm,
// kernel. Their inputs are fixed, so these rungs read the same on every
// workload.
func (ld *ladder) substrate(cost kernel.CostModel) {
	const batch = 4096
	eng := sim.NewEngine()
	nop := func() {}
	ld.cycle(step{name: "sim.event", ops: batch, allocs: true, fn: func() {
		for i := 0; i < batch; i++ {
			eng.After(sim.Duration(i%97+1), nop)
		}
		eng.Run()
	}})
	sk := metrics.NewSketch(metrics.DefaultSketchAlpha)
	ld.cycle(step{name: "metrics.sketch_add", ops: batch, fn: func() {
		for i := 0; i < batch; i++ {
			sk.Add(float64(i%977) + 0.5)
		}
	}})

	const run = 64
	phys := mem.New()
	dst, src := make([]mem.FrameID, run), make([]mem.FrameID, run)
	for i := range dst {
		dst[i], src[i] = phys.Alloc(), phys.Alloc()
		phys.WriteWord(dst[i], 0, uint64(i)+1) // materialise: lazy-zero frames copy for free
		phys.WriteWord(src[i], 8, uint64(i)+2)
	}
	arena := make([]byte, run*mem.PageSize)
	for i := range arena {
		arena[i] = byte(i)
	}
	ld.cycle(step{name: "mem.copy_run", ops: run, fn: func() { phys.CopyRun(dst, src) }})
	ld.m["mem.copy_run.ns_per_page"] = ld.m["mem.copy_run.ns"]
	ld.cycle(step{name: "mem.restore_run", ops: run, fn: func() { phys.RestoreRun(dst, arena) }})
	ld.m["mem.restore_run.ns_per_page"] = ld.m["mem.restore_run.ns"]
	ld.cycle(step{name: "mem.clone_unref", ops: run, fn: func() {
		for _, f := range src {
			phys.Unref(phys.Clone(f))
		}
	}})

	kern := kernel.New(cost)
	spec := kernel.ExecSpec{TextPages: 64, DataPages: 16, Threads: 1}
	ld.cycle(step{name: "kernel.spawn_exit", fn: func() {
		p, err := kern.Spawn(spec)
		if ld.check(err) {
			kern.Exit(p)
		}
	}})

	p, err := kern.Spawn(spec)
	if !ld.check(err) {
		return
	}
	as := p.AS
	const pages = 256
	var base vm.Addr
	touch := func() {
		for i := 0; i < pages; i++ {
			as.WriteWord(base+vm.Addr(i*mem.PageSize), uint64(i))
		}
	}
	mapRegion := func() {
		var err error
		base, err = as.Mmap(pages*mem.PageSize, vm.ProtRead|vm.ProtWrite, vm.KindAnon, "ladder")
		ld.check(err)
	}
	unmapRegion := func() { ld.check(as.Munmap(base, pages*mem.PageSize)) }
	var child *vm.AddressSpace
	ld.cycle(
		step{fn: mapRegion},
		step{name: "vm.write_word.demand_zero", ops: pages, fn: touch},
		step{name: "vm.write_word.hit", ops: pages, fn: touch},
		step{fn: func() { as.ClearSoftDirty() }},
		step{name: "vm.write_word.softdirty", ops: pages, fn: touch},
		step{fn: func() { child = as.Fork() }},
		step{name: "vm.write_word.cow", ops: pages, fn: touch},
		step{fn: func() { child.Release(); unmapRegion() }},
	)
	ld.cycle(step{name: "vm.mmap_munmap", fn: func() { mapRegion(); unmapRegion() }})

	mapRegion()
	touch()
	frames := make([]mem.FrameID, run)
	for i := range frames {
		frames[i] = kern.Phys.Alloc()
		kern.Phys.WriteWord(frames[i], 0, uint64(i)+3)
	}
	ld.cycle(step{name: "vm.poke_frame_run", ops: run, fn: func() { as.PokeFrameRun(base.PageNum(), frames) }})
	ld.m["vm.poke_frame_run.ns_per_page"] = ld.m["vm.poke_frame_run.ns"]
	for _, f := range frames {
		kern.Phys.Unref(f)
	}
	kern.Exit(p)
}

// function times one request of prof at the runtimes, core, isolation and
// faas boundaries, and the cold-start paths that build its container.
func (ld *ladder) function(cost kernel.CostModel, prof runtimes.Profile) {
	kern := kernel.New(cost)
	meter := sim.NewMeter()
	var warm *runtimes.Instance
	ld.cycle(
		step{name: "runtimes.warm_up", fn: func() {
			var err error
			if warm, err = runtimes.NewInstance(kern, prof, 1); ld.check(err) {
				warm.WarmUp(meter)
			}
		}},
		step{fn: func() { kern.Exit(warm.Proc) }},
	)

	inst, err := runtimes.NewInstance(kern, prof, 1)
	if !ld.check(err) {
		return
	}
	inst.WarmUp(meter)
	proc := inst.Proc

	// Before a manager attaches: the /proc and ptrace primitives a restore
	// is made of, and a process image for the spawn-from-image rung.
	fs := procfs.New(kern)
	var vmas []vm.VMA
	ld.cycle(step{name: "procfs.maps", fn: func() { vmas = fs.MapsRegions(proc, nil, vmas[:0]) }})
	mapped := 0
	for _, v := range vmas {
		mapped += v.Pages()
	}
	var entries []vm.PagemapEntry
	ld.cycle(step{name: "procfs.pagemap", ops: mapped, fn: func() {
		for _, v := range vmas {
			entries = fs.PagemapRangePresent(proc, v.Start, v.End, nil, entries[:0])
		}
	}})
	ld.m["procfs.pagemap.ns_per_page"] = ld.m["procfs.pagemap.ns"]
	ld.cycle(step{name: "ptrace.seize_detach", fn: func() {
		tr, err := ptrace.Seize(kern, proc, nil)
		if ld.check(err) {
			ld.check(tr.Detach())
		}
	}})
	img := kernel.ProcessImage{Layout: proc.AS.VMAs(), BrkBase: proc.AS.HeapBase(), Brk: proc.AS.BrkValue(),
		MmapBase: proc.AS.MmapBase(), VPNs: proc.AS.ResidentVPNs(), Regs: []kernel.Regs{proc.MainThread().Regs}}
	for _, vpn := range img.VPNs {
		pte, _ := proc.AS.PTEAt(vpn)
		img.Frames = append(img.Frames, pte.Frame)
	}
	ld.cycle(step{name: "kernel.spawn_from_image", fn: func() {
		p, err := kern.SpawnFromImage(img, nil)
		if ld.check(err) {
			kern.Exit(p)
		}
	}})

	// The request itself under a Groundhog manager: invoke, then restore.
	mgr, err := core.NewManager(kern, proc, core.DefaultOptions())
	if !ld.check(err) {
		return
	}
	ld.cycle(step{name: "core.take_snapshot", fn: func() { _, err := mgr.TakeSnapshot(); ld.check(err) }})
	var reqID uint64
	var rs core.RestoreStats
	invoke := func() {
		reqID++
		meter.Reset()
		inst.InvokeOn(proc, runtimes.Request{ID: reqID, SizeKB: prof.InputKB}, meter)
	}
	restore := func() {
		var err error
		rs, err = mgr.Restore()
		ld.check(err)
		inst.NotifyRestored()
	}
	for i := 0; i < 3; i++ { // the first request after a snapshot pays one-time arming faults
		invoke()
		restore()
	}

	// The same request one layer up, bracketed by the isolation strategy,
	// and two layers up, on the platform's own request path.
	kern2 := kernel.New(cost)
	inst2, err := runtimes.NewInstance(kern2, prof, 1)
	if !ld.check(err) {
		return
	}
	inst2.WarmUp(sim.NewMeter())
	strat, err := isolation.New(isolation.ModeGH, kern2, inst2.Proc)
	if !ld.check(err) {
		return
	}
	_, err = strat.Init()
	ld.check(err)
	meter2 := sim.NewMeter()
	bracketed := func() {
		reqID++
		meter2.Reset()
		p, err := strat.BeginRequest(meter2)
		if !ld.check(err) {
			return
		}
		inst2.InvokeOn(p, runtimes.Request{ID: reqID, SizeKB: prof.InputKB}, meter2)
		res, err := strat.EndRequest()
		if ld.check(err) && res.Restored {
			inst2.NotifyRestored()
		}
	}
	pl, err := faas.NewPlatform(cost, prof, isolation.ModeGH, 1, 1)
	if !ld.check(err) {
		return
	}
	once := func() { _, err := pl.InvokeOnce(""); ld.check(err) }
	// Each instance gets one untimed request to pull its pages back into
	// the caches, then a batch of timed ones: the three instances would
	// otherwise evict each other between every call, which a deployment
	// serving back-to-back requests never sees.
	t0 := time.Now()
	for i := 0; i < 3; i++ {
		bracketed()
		once()
	}
	k := min(64, max(4, int(15*time.Millisecond/time.Since(t0))))
	repeat := func(fn func()) func() {
		return func() {
			for i := 0; i < k; i++ {
				fn()
			}
		}
	}
	proc.AS.ResetFaults()
	requests := 0
	var inInvoke, inRequest time.Duration
	ld.cycle(
		step{fn: func() { requests++; invoke(); restore() }},
		step{name: "core.request", ops: k, fn: repeat(func() {
			requests++
			t0 := time.Now()
			invoke()
			t1 := time.Now()
			restore()
			inInvoke += t1.Sub(t0)
			inRequest += time.Since(t0)
		})},
		step{fn: bracketed},
		step{name: "isolation.request", ops: k, fn: repeat(bracketed)},
		step{fn: once},
		step{name: "faas.invoke_once", ops: k, fn: repeat(once), allocs: true},
	)
	share := float64(inInvoke) / float64(inRequest)
	ld.m["runtimes.invoke_on.ns"] = ld.m["core.request.ns"] * share
	ld.m["core.restore.ns"] = ld.m["core.request.ns"] * (1 - share)
	ld.spans.add(ld.spanID["core.request"], 0, "runtimes.invoke_on", time.Now().Add(-inInvoke), time.Now(), requests)
	ld.spans.add(ld.spanID["core.request"], 0, "core.restore", time.Now().Add(inInvoke-inRequest), time.Now(), requests)
	ld.m["runtimes.invoke_on.allocs"] = mallocs(20, invoke, restore)
	ld.m["core.restore.allocs"] = mallocs(20, restore, invoke)
	ld.m["vm.faults_per_req"] = float64(proc.AS.Faults().Total()) / float64(requests)
	ld.m["core.restore.restored_pages"] = float64(rs.RestoredPages)
	ld.m["core.restore.mapped_pages"] = float64(rs.MappedPages)
	ld.m["core.restore.layout_ops"] = float64(rs.LayoutOps)
	restore()
	if err := mgr.Verify(); err != nil {
		ld.errs = append(ld.errs, "after the restore rungs: "+err.Error())
	}
	ld.cycle(
		step{fn: invoke},
		step{name: "vm.clear_soft_dirty", fn: func() { proc.AS.ClearSoftDirty() }},
		step{fn: restore},
	)

	// Image lifecycle: export, clone a manager from it, copy it to a host.
	var image *core.SnapshotImage
	ld.cycle(
		step{name: "core.export_image", fn: func() { var err error; image, err = mgr.ExportImage(meter); ld.check(err) }},
		step{fn: func() { image.Release() }},
	)
	image, err = mgr.ExportImage(meter)
	if ld.check(err) {
		var clone *core.Manager
		ld.cycle(
			step{name: "core.clone_manager", fn: func() {
				var err error
				clone, err = core.NewManagerFromSnapshot(kern, image, core.DefaultOptions(), meter)
				ld.check(err)
			}},
			step{fn: func() { kern.Exit(clone.Process()); clone.Release() }},
		)
		remote := kernel.New(cost)
		var copied *core.SnapshotImage
		ld.cycle(
			step{name: "core.copy_image_to", fn: func() { var err error; copied, err = core.CopyImageTo(remote, image, meter); ld.check(err) }},
			step{fn: func() { copied.Release() }},
		)
		image.Release()
	}
	mgr.Release()
	kern.Exit(proc)

	var full *faas.Platform
	ld.cycle(
		step{name: "faas.cold_start.full", fn: func() { var err error; full, err = faas.NewPlatform(cost, prof, isolation.ModeGH, 1, 1); ld.check(err) }},
		step{fn: func() { full.RemoveContainer(full.Containers()[0]) }},
	)
	scale, err := faas.NewPlatformOn(sim.NewEngine(), kernel.New(cost), prof, isolation.ModeGH, 0, 1)
	if !ld.check(err) {
		return
	}
	scale.CloneScaleOut = true
	if _, err := scale.AddWarmContainer(); !ld.check(err) {
		return
	}
	var added *faas.Container
	ld.cycle(
		step{name: "faas.cold_start.clone", fn: func() { var err error; added, err = scale.AddContainer(); ld.check(err) }},
		step{fn: func() { scale.RemoveContainer(added) }},
	)
}

// ladderLoad is the representative function's own offered load: its rate
// and burstiness in its workload, and a window that gives the dispatcher a
// few hundred requests without taking longer than a rung should.
var ladderLoad = map[string]struct {
	rate, burst float64
	window      time.Duration
	poolCap     int
}{
	wlSimHead:      {4000, 4, 500 * time.Millisecond, simHeadContainers},
	wlClusterChurn: {120, 3, 2 * time.Second, clusterChurnPoolCap},
	wlLiveClosed:   {250, 1, 2 * time.Second, clusterChurnPoolCap},
	wlLiveOpen:     {100, 1, time.Second, clusterChurnPoolCap},
}

// simulators times the fleet and the cluster dispatching prof alone.
func (ld *ladder) simulators(cost kernel.CostModel, workload string, prof runtimes.Profile) {
	ll := ladderLoad[workload]
	loads := []trace.FunctionLoad{{Entry: catalog.Entry{Prof: prof}, RatePerSec: ll.rate, Burstiness: ll.burst}}
	window := sim.Duration(ll.window)

	var fl *trace.Fleet
	var requests, colds, transfers int
	ld.cycle(
		step{name: "trace.new_fleet", fn: func() {
			var err error
			fl, err = trace.NewFleet(trace.Config{Cost: cost, Mode: isolation.ModeGH, Seed: 1, MaxContainersPerFunction: ll.poolCap,
				KeepAlive: trace.DefaultKeepAlive, ScaleToZeroAfter: trace.DefaultScaleToZeroAfter, Window: window,
				CloneScaleOut: true, SketchStats: true}, loads)
			ld.check(err)
		}},
		step{name: "trace.fleet", fn: func() {
			res, err := fl.Run()
			if ld.check(err) {
				requests, colds = res.PerFunction[0].Requests, res.PerFunction[0].ColdStarts
			}
		}},
		step{fn: func() {
			if leaked := fl.Teardown(); leaked != 0 {
				ld.check(errLeaked("ladder fleet", leaked))
			}
		}},
	)
	ld.m["trace.fleet.ns_per_req"] = ld.m["trace.fleet.ns"] / float64(requests)
	ld.m["trace.cold_starts_per_kreq"] = 1000 * float64(colds) / float64(requests)

	var cl *cluster.Cluster
	ld.cycle(
		step{name: "cluster.new", fn: func() {
			var err error
			cl, err = cluster.New(cluster.Config{Cost: cost, Mode: isolation.ModeGH, Seed: 1, Hosts: clusterChurnHosts,
				MaxContainersPerFunction: ll.poolCap, KeepAlive: trace.DefaultKeepAlive, ScaleToZeroAfter: trace.DefaultScaleToZeroAfter,
				Window: window, Events: clusterEvents(window)}, loads)
			ld.check(err)
		}},
		step{name: "cluster.run", fn: func() {
			res, err := cl.Run()
			if ld.check(err) {
				requests, colds, transfers = res.PerFunction[0].Requests, res.PerFunction[0].ColdStarts, res.Registry.Transfers
			}
		}},
		step{fn: func() {
			if leaked := cl.Teardown(); leaked != 0 {
				ld.check(errLeaked("ladder cluster", leaked))
			}
		}},
	)
	ld.m["cluster.run.ns_per_req"] = ld.m["cluster.run.ns"] / float64(requests)
	ld.m["cluster.cold_starts_per_kreq"] = 1000 * float64(colds) / float64(requests)
	ld.m["cluster.transfers_per_kreq"] = 1000 * float64(transfers) / float64(requests)
}

// serving times the live path: server.Handle.Invoke, the gateway's two
// planes in process, one real TCP connection, and the shed path — all
// against one deployment, in one cycle. The server only deploys catalog
// functions; a synthetic representative (sim-head's) is stood in for by
// live-closed's function on these rungs.
func (ld *ladder) serving(prof runtimes.Profile) {
	fn := prof.DisplayName()
	if _, err := catalog.Lookup(fn); err != nil {
		fn = liveClosedFn
	}
	served, err := catalog.Lookup(fn)
	if !ld.check(err) {
		return
	}
	// The layer below Handle.Invoke, for the function actually deployed.
	pl, err := faas.NewPlatform(kernel.Default(), served.Prof, isolation.ModeGH, 1, 1)
	if !ld.check(err) {
		return
	}
	s := server.New()
	h, err := s.DataPlane(fn, isolation.ModeGH)
	if !ld.check(err) {
		return
	}
	invoke := func() { _, err := h.Invoke(""); ld.check(err) }
	invoke()

	g := gateway.New(s, gateway.Config{})
	body := bytes.Repeat([]byte("x"), liveClosedBody)
	rd := bytes.NewReader(body)
	req := &http.Request{Method: http.MethodPost, URL: &url.URL{}, Header: http.Header{}, Body: readerBody{rd}}
	w := &memWriter{h: http.Header{}}
	post := func(gw *gateway.Gateway, fn string) int {
		rd.Reset(body)
		w.status, w.n = 0, 0
		req.URL.Path = "/fn/" + fn
		gw.ServeHTTP(w, req)
		return w.status
	}

	// The binary plane in process: a scripted connection hands the gateway
	// a batch of invoke frames and collects the answers on the calling
	// goroutine, so the rung holds framing, routing, admission and the
	// invoke, and no socket or goroutine hand-off.
	const frames = 64
	sc := &scriptConn{in: resolveFrame(fn)}
	_ = g.ServeBinaryConn(sc)
	if len(sc.out) != 9 || sc.out[4] != 1 {
		ld.errs = append(ld.errs, fmt.Sprintf("gateway.binary: resolve answered % x", sc.out))
		return
	}
	script := invokeFrames(binary.BigEndian.Uint32(sc.out[5:]), body, frames)

	// One real connection to the same gateway: everything above plus the
	// loopback socket and the hand-off between two goroutines.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if !ld.check(err) {
		return
	}
	var serving sync.WaitGroup
	serving.Add(1)
	go func() { defer serving.Done(); _ = g.ServeBinary(ln) }()
	bw, err := dialBin(ln.Addr().String(), fn, append([]byte(nil), body...))
	if !ld.check(err) {
		return
	}
	bw.do(liveWarmupRequests, nil)

	// Batches keep the per-step clock reads negligible for a 10 us invoke
	// and the alternation between steps fine-grained for a 2 ms one.
	t0 := time.Now()
	invoke()
	calls := min(64, max(4, int(10*time.Millisecond/time.Since(t0))))
	var wg sync.WaitGroup
	ld.cycle(
		step{fn: func() { _, err := pl.InvokeOnce(""); ld.check(err) }}, // bring this instance's pages back into the caches
		step{name: "server.fn_invoke_once", ops: calls, fn: func() {
			for i := 0; i < calls; i++ {
				_, err := pl.InvokeOnce("")
				ld.check(err)
			}
		}},
		step{fn: invoke},
		step{name: "server.invoke", ops: calls, allocs: true, fn: func() {
			for i := 0; i < calls; i++ {
				invoke()
			}
		}},
		// Lock wait: the same calls from two goroutines at once, per call,
		// less the same call alone.
		step{name: "server.invoke_x2", ops: calls, fn: func() {
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						invoke()
					}
				}()
			}
			wg.Wait()
		}},
		step{name: "gateway.http", ops: calls, allocs: true, fn: func() {
			for i := 0; i < calls; i++ {
				if st := post(g, fn); st != http.StatusOK || w.n != len(body) {
					ld.errs = append(ld.errs, fmt.Sprintf("gateway.http: status %d, %d bytes", st, w.n))
				}
			}
		}},
		step{name: "gateway.binary", ops: frames, allocs: true, fn: func() {
			sc.in, sc.out = script, sc.out[:0]
			_ = g.ServeBinaryConn(sc)
			if want := frames * (4 + 1 + 8 + 8 + 1 + len(body)); len(sc.out) != want || !bytes.Equal(sc.out[len(sc.out)-len(body):], body) {
				ld.errs = append(ld.errs, fmt.Sprintf("gateway.binary: %d response bytes, want %d echoed", len(sc.out), want))
			}
		}},
		step{name: "transport.tcp", ops: calls, fn: func() {
			if _, t := bw.do(calls, nil); t.failed() != 0 {
				ld.errs = append(ld.errs, fmt.Sprintf("transport.tcp: %+v", t))
			}
		}},
	)
	ld.m["server.invoke.wait_ns"] = ld.m["server.invoke_x2.ns"] - ld.m["server.invoke.ns"]
	_ = bw.c.Close()

	ld.shed(s, fn, post)
	_ = g.Close()
	serving.Wait()
	if leaked := s.Shutdown(); leaked != 0 {
		ld.check(errLeaked("ladder server", leaked))
	}
}

// shed times the 429 path: a gateway with one admission slot, which a
// second goroutine occupies with a request whose body does not arrive
// until the rung is over (the slot is taken before the body is read),
// answers everything else on that route from the shed path without
// touching the deployment.
func (ld *ladder) shed(s *server.Server, fn string, post func(*gateway.Gateway, string) int) {
	g := gateway.New(s, gateway.Config{QueueDepth: 1})
	if st := post(g, fn); st != http.StatusOK { // registers the route
		ld.errs = append(ld.errs, fmt.Sprintf("gateway.shed: warm-up status %d", st))
		return
	}
	body := &gateBody{entered: make(chan struct{}), release: make(chan struct{})}
	var holder sync.WaitGroup
	holder.Add(1)
	go func() {
		defer holder.Done()
		g.ServeHTTP(&memWriter{h: http.Header{}}, &http.Request{Method: http.MethodPost,
			URL: &url.URL{Path: "/fn/" + fn}, Header: http.Header{}, Body: body})
	}()
	<-body.entered // the holder has the slot and waits for its body
	var shedNs time.Duration
	sheds := 0
	start := time.Now()
	for shedNs < ld.perRung && time.Since(start) < 3*ld.perRung {
		t0 := time.Now()
		st := post(g, fn)
		if d := time.Since(t0); st == http.StatusTooManyRequests {
			shedNs += d
			sheds++
		}
	}
	close(body.release)
	holder.Wait()
	_ = g.Close()
	after := ld.p.probe().comp
	if sheds > 0 {
		ld.m["gateway.shed.ns"] = float64(shedNs) / float64(sheds) * scale(ld.last, after)
	}
	ld.last = after
	ld.spans.add(ld.spanID["gateway.http"], 0, "gateway.shed", start, start.Add(shedNs), sheds)
}

// gateBody is a request body that reports its first read, blocks until
// released, then ends.
type gateBody struct {
	once             sync.Once
	entered, release chan struct{}
}

func (b *gateBody) Read([]byte) (int, error) {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return 0, io.EOF
}

func (*gateBody) Close() error { return nil }

// scriptConn is a net.Conn that plays back request bytes and records the
// response bytes, all on the caller's goroutine.
type scriptConn struct {
	in, out []byte
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.in)
	c.in = c.in[n:]
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error)    { c.out = append(c.out, p...); return len(p), nil }
func (*scriptConn) Close() error                     { return nil }
func (*scriptConn) LocalAddr() net.Addr              { return nil }
func (*scriptConn) RemoteAddr() net.Addr             { return nil }
func (*scriptConn) SetDeadline(time.Time) error      { return nil }
func (*scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (*scriptConn) SetWriteDeadline(time.Time) error { return nil }

// resolveFrame and invokeFrames speak the gateway's documented wire format
// (internal/gateway/binary.go): len u32 | op u8 | payload.
func resolveFrame(fn string) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(1+1+2+len(fn)))
	b = append(b, 1, 0xFF) // op resolve, default mode
	b = binary.BigEndian.AppendUint16(b, uint16(len(fn)))
	return append(b, fn...)
}

func invokeFrames(route uint32, body []byte, n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = binary.BigEndian.AppendUint32(b, uint32(1+4+1+len(body)))
		b = append(b, 2) // op invoke
		b = binary.BigEndian.AppendUint32(b, route)
		b = append(b, 0) // empty caller
		b = append(b, body...)
	}
	return b
}

// memWriter is an in-memory http.ResponseWriter that reuses one header map.
type memWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *memWriter) WriteHeader(s int)           { w.status = s }

type readerBody struct{ *bytes.Reader }

func (readerBody) Close() error { return nil }
