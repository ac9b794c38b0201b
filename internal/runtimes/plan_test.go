package runtimes

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"groundhog/internal/core"
	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

// refLayout is the warm layout the per-request loops worked from before the
// plan existed, read back from the instance's address space.
type refLayout struct {
	prof      Profile
	heapStart vm.Addr
	heapPages int
	arenas    []vm.VMA // in creation order: arena0 first
}

func layoutOf(t testing.TB, in *Instance) refLayout {
	t.Helper()
	as := in.Proc.AS
	l := refLayout{prof: in.Prof, heapStart: as.HeapBase()}
	for _, v := range as.VMAs() {
		switch {
		case v.Kind == vm.KindHeap:
			l.heapPages = v.Pages()
		case strings.HasPrefix(v.Name, "/opt/runtime/"):
			l.arenas = append(l.arenas, v)
		}
	}
	sort.Slice(l.arenas, func(i, j int) bool { return l.arenas[i].Name < l.arenas[j].Name })
	if l.heapPages == 0 {
		t.Fatal("no heap region")
	}
	return l
}

// The reference generator: pickRun, poolPage and the uniform draw exactly as
// InvokeOn's per-page loops ran them on every request. The plan must hold
// the same pages, as a multiset.

func (l refLayout) pickRun(salt uint64, run int) uint64 {
	total := l.heapPages
	for _, v := range l.arenas {
		total += v.Pages()
	}
	window := l.prof.DropPages
	heapUsable := l.heapPages - window
	total -= window
	idx := int((salt*0x2545F4914F6CDD1D ^ salt>>17) % uint64(total))
	clamp := func(start uint64, pages, idx int) uint64 {
		if idx > pages-run {
			idx = pages - run
			if idx < 0 {
				idx = 0
			}
		}
		return start + uint64(idx)
	}
	if idx < heapUsable {
		return clamp(l.heapStart.PageNum()+uint64(window), heapUsable, idx)
	}
	idx -= heapUsable
	for _, v := range l.arenas {
		if idx < v.Pages() {
			return clamp(v.Start.PageNum(), v.Pages(), idx)
		}
		idx -= v.Pages()
	}
	return l.heapStart.PageNum()
}

func (l refLayout) poolPage(idx int) uint64 {
	window := l.prof.DropPages
	heapUsable := l.heapPages - window
	if idx < heapUsable {
		return l.heapStart.PageNum() + uint64(window+idx)
	}
	idx -= heapUsable
	for _, v := range l.arenas {
		if idx < v.Pages() {
			return v.Start.PageNum() + uint64(idx)
		}
		idx -= v.Pages()
	}
	return l.heapStart.PageNum() + uint64(window)
}

func (l refLayout) uniformDirtySet() []uint64 {
	pool := l.heapPages - l.prof.DropPages
	for _, v := range l.arenas {
		pool += v.Pages()
	}
	want := l.prof.DirtyPages
	if want > pool {
		want = pool
	}
	rng := sim.NewRand(hashName(l.prof.Name) ^ 0xD1274)
	var set []uint64
	seen := 0
	for idx := 0; idx < pool && seen < want; idx++ {
		if rng.Intn(pool-idx) < want-seen {
			set = append(set, l.poolPage(idx))
			seen++
		}
	}
	return set
}

// accesses replays the deleted loops, recording pages instead of touching
// them, in the order the loops visited them.
func (l refLayout) accesses() (drop, reads, writes, stack []uint64) {
	prof := l.prof
	for i := 0; i < prof.DropPages; i++ {
		drop = append(drop, l.heapStart.PageNum()+uint64(i))
	}
	for i := 0; i < prof.ReadPages(); i++ {
		reads = append(reads, l.pickRun(uint64(i)*2654435761, 1))
	}
	if prof.UniformDirty {
		writes = l.uniformDirtySet()
	} else {
		written := 0
		for written < prof.DirtyPages {
			run := writeRunLen
			if rem := prof.DirtyPages - written; rem < run {
				run = rem
			}
			base := l.pickRun(uint64(written)*0x9E3779B9, run)
			for j := 0; j < run; j++ {
				writes = append(writes, base+uint64(j))
				written++
			}
		}
	}
	for i := 0; i < stackSlack; i++ {
		stack = append(stack, (vm.StackTop - vm.Addr(i+1)*mem.PageSize + 8).PageNum())
	}
	return
}

// TestPlanMatchesPerRequestLoops: over random profiles, each list of the
// compiled plan is sorted, equals what the per-request loops produced as a
// multiset, and — reads and writes — stays inside the warm regions and
// outside the drop window, for every layout NewInstance accepts.
func TestPlanMatchesPerRequestLoops(t *testing.T) {
	f := func(total uint16, dirty, drop uint16, lang uint8, uniform bool, readAll bool) bool {
		prof := Profile{
			Name:         "plan-fn",
			Lang:         Language(lang % 3),
			Exec:         time.Millisecond,
			TotalPages:   64 + int(total)%6000,
			UniformDirty: uniform,
		}
		prof.DirtyPages = int(dirty) % (prof.TotalPages / 2)
		prof.DropPages = int(drop) % (prof.TotalPages / 4)
		if readAll {
			prof.ReadPagesOverride = prof.TotalPages
		}
		k := kernel.New(kernel.Default())
		in, err := NewInstance(k, prof, 1)
		if err != nil {
			return true // the footprint cannot be laid out: nothing to plan
		}
		defer k.Exit(in.Proc)
		l := layoutOf(t, in)
		drop0, reads, writes, stack := l.accesses()
		ok := true
		for _, c := range []struct {
			name      string
			got, want []uint64
			pooled    bool
		}{
			{"drop", in.plan.drop, drop0, false},
			{"reads", in.plan.reads, reads, true},
			{"writes", in.plan.writes, writes, true},
			{"stack", in.plan.stack, stack, false},
		} {
			slices.Sort(c.want)
			if !slices.IsSorted(c.got) || !slices.Equal(c.got, c.want) {
				t.Errorf("%+v: plan.%s is not the loops' pages in address order (%d vs %d pages)", prof, c.name, len(c.got), len(c.want))
				ok = false
			}
			if !c.pooled {
				continue
			}
			for _, vpn := range c.got {
				inHeap := vpn >= l.heapStart.PageNum()+uint64(prof.DropPages) && vpn < l.heapStart.PageNum()+uint64(l.heapPages)
				inArena := slices.ContainsFunc(l.arenas, func(v vm.VMA) bool { return v.Contains(vm.PageAddr(vpn)) })
				if !inHeap && !inArena {
					t.Errorf("%+v: plan.%s page %#x outside the warm pool", prof, c.name, vpn)
					ok = false
				}
			}
		}
		if prof.UniformDirty {
			for i := 1; i < len(in.plan.writes); i++ {
				if in.plan.writes[i] == in.plan.writes[i-1] {
					t.Errorf("%+v: uniform write set repeats page %#x", prof, in.plan.writes[i])
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWriteRunLongerThanAnArenaRejected: a footprint whose arenas come out
// shorter than the write run used to lay out and then segfault in WarmUp
// (the run walked off arena 0, past MmapTop). NewInstance refuses it; the
// smallest footprint of the same shape whose arenas fit the run warms up.
func TestWriteRunLongerThanAnArenaRejected(t *testing.T) {
	prof := Profile{Name: "overrun", Lang: LangC, Exec: time.Millisecond,
		TotalPages: 92, DirtyPages: 64}
	k := kernel.New(kernel.Default())
	if in, err := NewInstance(k, prof, 1); err == nil {
		t.Fatalf("accepted a layout with arenas %v shorter than the write run", layoutOf(t, in).arenas)
	}
	if k.Phys.InUse() != 0 {
		t.Fatalf("rejected layout left %d frames behind", k.Phys.InUse())
	}
	prof.UniformDirty = true // no runs: the same footprint is fine
	if _, err := NewInstance(k, prof, 1); err != nil {
		t.Fatalf("uniform write set rejected: %v", err)
	}
	prof.UniformDirty = false
	for prof.TotalPages++; ; prof.TotalPages++ {
		in, err := NewInstance(k, prof, 1)
		if err != nil {
			continue
		}
		for _, v := range layoutOf(t, in).arenas {
			if v.Pages() < writeRunLen {
				t.Fatalf("accepted %d pages with a %d-page arena", prof.TotalPages, v.Pages())
			}
		}
		in.WarmUp(nil)
		return
	}
}

// TestPlanSharedByClonesAndForkChildren: an instance rebuilt from captured
// state replays the donor's plan itself — same backing array, no copy, no
// rebuild — and a fork child's request uses it unchanged.
func TestPlanSharedByClonesAndForkChildren(t *testing.T) {
	prof := smallProfile()
	prof.Lang = LangPython
	prof.DropPages = 20
	k, in := warmInstance(t, prof)
	pages := slices.Concat(in.plan.drop, in.plan.reads, in.plan.writes, in.plan.stack)

	clone := NewInstanceFromState(k, in.Proc, in.CaptureState(), 9)
	if clone.plan != in.plan || &clone.plan.writes[0] != &in.plan.writes[0] {
		t.Fatal("cloned instance does not share the donor's plan")
	}

	child, err := k.Fork(in.Proc, nil)
	if err != nil {
		t.Fatal(err)
	}
	child.AS.ClearSoftDirty()
	clone.InvokeOn(child, Request{ID: 1, Secret: 7}, nil)
	dirty := child.AS.AppendSoftDirtyVPNs(nil)
	for _, list := range [][]uint64{in.plan.drop, in.plan.writes, in.plan.stack} {
		for _, vpn := range list {
			if _, found := slices.BinarySearch(dirty, vpn); !found {
				t.Fatalf("fork child did not write planned page %#x", vpn)
			}
		}
	}
	k.Exit(child)

	after := slices.Concat(in.plan.drop, in.plan.reads, in.plan.writes, in.plan.stack)
	if !slices.Equal(pages, after) {
		t.Fatal("a request modified the shared plan")
	}
}

// TestInvokeOnAllocs pins the request body's own allocations under Groundhog
// (invoke, restore, NotifyRestored): none for a C function, and for a Python
// function only the name of the one scratch region it maps per request — the
// churn list is reused across restores and the page accesses replay the plan.
//
// The process-wide malloc counter also sees whatever the runtime and the test
// framework allocate meanwhile. The body allocates the same on every request,
// so those strays only ever add: the test measures several independent
// windows and judges the quietest.
func TestInvokeOnAllocs(t *testing.T) {
	for _, c := range []struct {
		lang Language
		max  float64
	}{{LangC, 0}, {LangPython, 1}} {
		prof := Profile{Name: "pyflate", Lang: c.lang, Exec: time.Millisecond, TotalPages: 8250, DirtyPages: 3010}
		k, in := warmInstance(t, prof)
		mgr, err := core.NewManager(k, in.Proc, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.TakeSnapshot(); err != nil {
			t.Fatal(err)
		}
		meter := sim.NewMeter()
		var id uint64
		// request serves one request, restores, and reports the mallocs
		// counted across the request body.
		request := func() uint64 {
			id++
			meter.Reset()
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			in.Invoke(Request{ID: id}, meter)
			runtime.ReadMemStats(&b)
			if _, err := mgr.Restore(); err != nil {
				t.Fatal(err)
			}
			in.NotifyRestored()
			return b.Mallocs - a.Mallocs
		}
		for i := 0; i < 5; i++ { // the first requests size the dirty log and the region list
			request()
		}
		const windows, rounds = 5, 20
		best := uint64(math.MaxUint64)
		for w := 0; w < windows; w++ {
			var total uint64
			for i := 0; i < rounds; i++ {
				total += request()
			}
			best = min(best, total)
		}
		if got := float64(best) / rounds; got > c.max {
			t.Errorf("%v: InvokeOn allocated %.2f per request in the quietest of %d windows, want <= %v",
				c.lang, got, windows, c.max)
		}
	}
}
