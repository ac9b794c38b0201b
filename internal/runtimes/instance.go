package runtimes

import (
	"fmt"
	"strconv"

	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

// Instance is one warm function process executing one benchmark profile
// inside one container. It owns the per-container mutable state the
// evaluation depends on: the regions recycled by layout churn, the leak
// accumulator, and whether the process was restored since the last request.
type Instance struct {
	Prof Profile
	Proc *kernel.Process

	kern *kernel.Kernel
	rng  *sim.Rand

	// plan is the request's compiled page accesses: immutable, shared with
	// every instance cloned from this one's image.
	plan *accessPlan

	churn []vm.Addr // regions mapped by the previous request

	leakedRequests int // requests since last rollback (drives LeakSlowdown)
	justRestored   bool
	warm           bool

	// stateGets and statePuts count the external state-store operations
	// performed so far (cumulative; see Profile.StateGets/StatePuts).
	stateGets int
	statePuts int

	// Wasm selects FAASM execution: compute scaled by the language's
	// WasmFactor.
	Wasm bool
}

// NewInstance spawns a process for the profile and lays out its warm memory
// image: runtime text, data, a brk heap, and named library/arena regions
// summing to Prof.TotalPages, all resident.
func NewInstance(k *kernel.Kernel, prof Profile, seed uint64) (*Instance, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	text := prof.Lang.TextPages()
	// Budget: text + data + stack + heap + arenas == TotalPages.
	remaining := prof.TotalPages - text - dataPages - stackPages
	if remaining < 16 {
		// Tiny profiles (the 0.98 K-page PolyBench functions): shrink text.
		text = prof.TotalPages / 4
		remaining = prof.TotalPages - text - dataPages - stackPages
		if remaining < 16 {
			return nil, fmt.Errorf("runtimes: %s: cannot lay out %d pages", prof.Name, prof.TotalPages)
		}
	}
	heapPages := remaining * 2 / 5
	// The transient drop window lives at the bottom of the heap; make sure
	// it fits (heat-3d's buffer is most of its footprint).
	if min := prof.DropPages + 16; heapPages < min {
		heapPages = min
	}
	if heapPages > remaining {
		return nil, fmt.Errorf("runtimes: %s: drop window (%d pages) exceeds heap budget", prof.Name, prof.DropPages)
	}
	arenaPages := remaining - heapPages
	// A write run lands whole inside one span of the warm pool — the heap
	// above the drop window, or an arena (a quarter of arenaPages each; one
	// arena of all of them when there are under four). Were the shortest span
	// shorter than the run, the run would walk off its end into the
	// neighbouring region or, from the topmost arena, past MmapTop.
	shortest := heapPages - prof.DropPages
	if arenaPages >= 4 {
		shortest = min(shortest, arenaPages/4)
	} else if arenaPages > 0 {
		shortest = min(shortest, arenaPages)
	}
	if run := prof.writeRun(); run > shortest {
		return nil, fmt.Errorf("runtimes: %s: %d-page write runs do not fit a %d-page warm region", prof.Name, run, shortest)
	}

	p, err := k.Spawn(kernel.ExecSpec{
		TextPages:  text,
		DataPages:  dataPages,
		StackBytes: stackPages * mem.PageSize,
		Threads:    prof.Lang.Threads(),
	})
	if err != nil {
		return nil, err
	}
	in := &Instance{
		Prof: prof,
		Proc: p,
		kern: k,
		rng:  sim.NewRand(seed ^ hashName(prof.Name)),
	}
	as := p.AS

	heapStart := as.HeapBase()
	if _, err := as.Brk(heapStart + vm.Addr(heapPages*mem.PageSize)); err != nil {
		return nil, err
	}

	// Library / runtime arena regions, in a few named chunks so layout
	// diffs look like real maps files.
	var arenas []pageSpan // large warm regions where reads/writes land
	chunk := arenaPages / 4
	for i := 0; i < 4; i++ {
		n := chunk
		if i == 3 {
			n = arenaPages - 3*chunk
		}
		if n <= 0 {
			continue
		}
		name := fmt.Sprintf("/opt/runtime/%s/arena%d", prof.Lang, i)
		a, err := as.Mmap(n*mem.PageSize, vm.ProtRW, vm.KindFile, name)
		if err != nil {
			return nil, err
		}
		arenas = append(arenas, pageSpan{a.PageNum(), n})
	}
	in.plan = compilePlan(prof, heapStart, heapPages, arenas)
	return in, nil
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// WarmUp performs the runtime/data initialization and the dummy request
// (§4.1): it faults in the whole warm image so lazy loading is captured by
// the snapshot taken afterwards. The duration charged to meter is the
// "Runtime Initialization" + "Data Initialization" span of Fig. 1.
func (in *Instance) WarmUp(meter *sim.Meter) {
	if in.warm {
		return
	}
	as := in.Proc.AS
	saved := as.Meter()
	as.SetMeter(meter)
	defer as.SetMeter(saved)

	sim.ChargeTo(meter, in.Prof.Lang.InitDuration()+in.Prof.WarmupExtra)

	// Touch every page of every segment: lazy class loading, module
	// imports, model downloads — whatever the runtime does, it is resident
	// before the snapshot. The pages go through the batched access a window
	// at a time, so a cold start builds no footprint-sized list.
	var window [512]uint64
	for _, v := range as.VMAs() {
		if v.Prot&vm.ProtRead == 0 {
			continue
		}
		for vpn, end := v.Start.PageNum(), v.End.PageNum(); vpn < end; {
			n := 0
			for ; n < len(window) && vpn < end; n, vpn = n+1, vpn+1 {
				window[n] = vpn
			}
			as.TouchPages(window[:n])
		}
	}
	// The dummy request triggers application-level initialization too. It
	// carries a nonzero payload: real data initialization leaves nonzero
	// state behind, so the warm image's write set holds real page contents
	// rather than lazily-zero frames. Virtual costs are content-independent;
	// this only makes the snapshot (and anything derived from it, like a
	// clone image export) carry the bytes a real runtime would.
	in.warm = true
	in.Invoke(Request{ID: 0, Secret: warmupSecret}, meter)
	// Whatever the dummy request churned or leaked is part of the
	// snapshot-to-be; reset the per-request state.
	in.leakedRequests = 0
	in.justRestored = false
}

// NotifyRestored tells the instance its process state was rolled back to
// the snapshot: leaked state is gone and time-dependent runtime machinery
// (GC clocks, lazily rebuilt caches) will re-warm during the next request.
// The rollback unmapped the request's churn regions and put back the ones
// the warm-up mapped before the snapshot; those stay mapped but are no
// longer tracked, so no later request unmaps them. A clone starts from the
// pristine template, which still tracks them.
func (in *Instance) NotifyRestored() {
	in.leakedRequests = 0
	in.churn = in.churn[:0]
	in.justRestored = true
}

// NotifyRestoredVirtualized is NotifyRestored under time virtualization
// (§5.3.1's proposed fix): restoration also resets the process's notion of
// time to the snapshot's, so time-driven machinery such as V8's garbage
// collector does not observe a jump and the post-restore re-warm penalty
// disappears.
func (in *Instance) NotifyRestoredVirtualized() {
	in.leakedRequests = 0
	in.churn = in.churn[:0]
	in.justRestored = false
}

// Invoke executes one request in the instance's own process.
func (in *Instance) Invoke(req Request, meter *sim.Meter) Response {
	return in.InvokeOn(in.Proc, req, meter)
}

// InvokeOn executes one request against proc — normally the instance's own
// process, but fork-based isolation passes an ephemeral child cloned from
// it. All critical-path compute and fault costs are charged to meter.
//
// The request body: reads its working set, writes its dirty set, performs
// the runtime's layout churn, releases DropPages, grows any leak, scribbles
// on the stack, and taints the thread registers — everything a real request
// does that restoration must undo. The page accesses replay the instance's
// accessPlan, one batched vm call per list.
func (in *Instance) InvokeOn(proc *kernel.Process, req Request, meter *sim.Meter) Response {
	prof := in.Prof
	plan := in.plan
	ephemeral := proc != in.Proc
	as := proc.AS
	saved := as.Meter()
	as.SetMeter(meter)
	defer as.SetMeter(saved)

	// Compute time: base, wasm factor, leak slowdown, post-restore
	// re-warm penalty.
	exec := float64(prof.Exec)
	if in.Wasm {
		f := prof.Lang.WasmFactor()
		if f == 0 {
			panic(fmt.Sprintf("runtimes: %s: language %v unsupported under wasm", prof.Name, prof.Lang))
		}
		exec *= f
	}
	if prof.LeakSlowdown > 0 {
		exec *= 1 + prof.LeakSlowdown*float64(in.leakedRequests)
	}
	d := in.rng.Jitter(sim.Duration(exec), 0.012)
	if in.justRestored {
		d += prof.GHPenalty
		in.justRestored = false
	}
	sim.ChargeTo(meter, d)

	// External state operations (the stateful-function scenario): counts
	// drawn per request around the profile's means, each a priced round
	// trip on the critical path. The draw happens only when the profile is
	// stateful, so stateless profiles consume nothing from the instance's
	// random stream and their runs stay bit-identical.
	if prof.Stateful() {
		gets := in.drawStateOps(prof.StateGets)
		puts := in.drawStateOps(prof.StatePuts)
		sim.ChargeTo(meter, sim.Duration(gets)*in.kern.Cost.StateGetCost+
			sim.Duration(puts)*in.kern.Cost.StatePutCost)
		in.stateGets += gets
		in.statePuts += puts
	}

	// Transient buffer (the DropPages window): the runtime's allocator
	// returned the previous request's large buffer to the kernel, so this
	// request frees the window and repopulates it with fresh demand-zero
	// pages. The writes take minor faults under every configuration (the
	// pages are freshly mapped, so no soft-dirty arming fault), yet leave
	// the pages dirty — which is how Table 3 rows like heat-3d(c) and
	// primes(n) restore far more pages than they soft-dirty fault on.
	if len(plan.drop) > 0 {
		_ = as.Madvise(vm.PageAddr(plan.drop[0]), len(plan.drop)*mem.PageSize)
		as.WriteWords(plan.drop, 0, 0)
	}

	as.TouchPages(plan.reads)
	as.WriteWords(plan.writes, 0, req.Secret)

	// Layout churn: unmap the previous request's scratch regions, map
	// fresh ones. In an ephemeral (forked) process the churn list is not
	// persisted: each child starts from the same parent image, so the
	// inherited scratch regions are the ones to recycle every time.
	for _, a := range in.churn {
		_ = as.Munmap(a, churnRegionPages*mem.PageSize)
	}
	if !ephemeral {
		// The previous request's list was fully consumed above; reuse its
		// storage. (An ephemeral child must not touch the parent's list —
		// every child re-unmaps the same inherited regions.)
		in.churn = in.churn[:0]
	}
	// Region names are distinct per request and per region: that is what
	// stops insertVMA merging adjacent scratch regions.
	var name [48]byte
	for i := 0; i < prof.Lang.LayoutChurnOps(); i++ {
		b := strconv.AppendUint(append(name[:0], "churn:"...), req.ID, 10)
		b = strconv.AppendUint(append(b, ':'), uint64(i), 10)
		if a, err := as.Mmap(churnRegionPages*mem.PageSize, vm.ProtRW, vm.KindFile, string(b)); err == nil {
			as.WriteWord(a, req.ID)
			if !ephemeral {
				in.churn = append(in.churn, a)
			}
		}
	}

	// Leak (the logging(p) bug): pages mapped and never freed.
	if prof.LeakPages > 0 {
		b := strconv.AppendUint(append(name[:0], "leak:"...), req.ID, 10)
		if a, err := as.Mmap(prof.LeakPages*mem.PageSize, vm.ProtRW, vm.KindFile, string(b)); err == nil {
			as.WriteWord(a, 0)
		}
		in.leakedRequests++
	}

	// Stack frames and registers carry request-derived values.
	as.WriteWords(plan.stack, 8, req.ID^req.Secret)
	for _, th := range proc.Threads {
		th.Regs.GP[0] = req.ID
		th.Regs.GP[1] = req.Secret
	}

	return Response{SizeKB: prof.OutputKB}
}

// churnRegionPages is the size of each scratch region cycled per request.
const churnRegionPages = 24

// warmupSecret is the dummy request's nonzero payload marker (see WarmUp).
const warmupSecret = 0x57A7E5EED

// drawStateOps draws one request's operation count around a mean: the
// integer part always happens, the fractional part is a Bernoulli draw on
// the instance's seeded stream (so a mean of 2.25 issues two ops on three
// requests out of four, and integral means draw nothing random at all).
func (in *Instance) drawStateOps(mean float64) int {
	n := int(mean)
	if frac := mean - float64(n); frac > 0 && in.rng.Float64() < frac {
		n++
	}
	return n
}

// StateOps reports the cumulative external state-store operation counts
// (zero for stateless profiles).
func (in *Instance) StateOps() (gets, puts int) { return in.stateGets, in.statePuts }

// ResidentPages reports the process's current resident set.
func (in *Instance) ResidentPages() int { return in.Proc.AS.ResidentPages() }

// ImageState is the warm-instance bookkeeping captured alongside a memory
// snapshot: the access plan compiled for the image's layout and the scratch
// regions the snapshot-time state holds. A container cloned from a snapshot
// image pairs the cloned process with NewInstanceFromState so its requests
// behave exactly like a fully-initialized sibling's — the functional half of
// the clone-equivalence guarantee.
type ImageState struct {
	prof  Profile
	plan  *accessPlan
	churn []vm.Addr
	wasm  bool
}

// CaptureState copies the instance's warm bookkeeping (the plan is immutable
// and shared). Capture it at the same moment the memory snapshot is taken
// (right after strategy Init), while the instance is pristine.
func (in *Instance) CaptureState() ImageState {
	return ImageState{
		prof:  in.Prof,
		plan:  in.plan,
		churn: append([]vm.Addr(nil), in.churn...),
		wasm:  in.Wasm,
	}
}

// NewInstanceFromState binds a warm instance to proc — a process cloned from
// a snapshot image — restoring the donor's captured bookkeeping instead of
// laying out (and faulting in) a fresh memory image. The instance is already
// warm: WarmUp is a no-op and the first request behaves like any
// post-initialization request on the donor.
func NewInstanceFromState(k *kernel.Kernel, proc *kernel.Process, st ImageState, seed uint64) *Instance {
	return &Instance{
		Prof:  st.prof,
		Proc:  proc,
		kern:  k,
		rng:   sim.NewRand(seed ^ hashName(st.prof.Name)),
		plan:  st.plan,
		churn: append([]vm.Addr(nil), st.churn...),
		warm:  true,
		Wasm:  st.wasm,
	}
}
