package runtimes

import (
	"slices"

	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

// accessPlan is the page accesses of one request, compiled once per warm
// image. Which pages a request reads and writes is a pure function of the
// warm layout and the profile — functions rewrite the same buffers, so that
// without restoration (BASE, GH-NOP) arming faults do not recur — and
// InvokeOn replays the plan through vm's batched access loop instead of
// re-deriving some thousands of page numbers per request. Each list is in
// address order (the loop resolves a region once per run of pages inside it,
// and the page table is walked chunk by chunk) and keeps its duplicates: a
// page picked twice is accessed, and charged, twice. The four lists share one
// backing array.
//
// A plan is immutable once built: the instance, every instance cloned from
// its image (ImageState) and every fork child replay the same one.
type accessPlan struct {
	drop   []uint64 // the DropPages window at the bottom of the heap
	reads  []uint64 // read working set: touches spread across heap and arenas
	writes []uint64 // write set (see compilePlan)
	stack  []uint64 // the stackSlack pages below StackTop every request scribbles on
}

// pageSpan is a run of warm pages requests may read and write.
type pageSpan struct {
	start uint64
	pages int
}

// warmPool is where reads and writes land: the heap above the drop window
// (which has its own per-request lifecycle), then the arenas. Text is
// read-only and the stack is scribbled separately.
type warmPool struct {
	spans []pageSpan
	total int
}

// locate maps a pool index onto its span and the index within it.
func (p warmPool) locate(idx int) (pageSpan, int) {
	for _, s := range p.spans {
		if idx < s.pages {
			return s, idx
		}
		idx -= s.pages
	}
	panic("runtimes: pool index out of range")
}

// pickRun maps a pseudo-random salt onto a warm page such that `run`
// consecutive pages starting there all lie within one span. Every span is at
// least that long: NewInstance rejects the footprints where one is not.
func (p warmPool) pickRun(salt uint64, run int) uint64 {
	s, idx := p.locate(int((salt*0x2545F4914F6CDD1D ^ salt>>17) % uint64(p.total)))
	return s.start + uint64(min(idx, s.pages-run))
}

// writeRunLen is the cluster length of the write pattern: managed-heap
// writes touch small clusters of adjacent pages.
const writeRunLen = 2

// writeRun is the length of the clusters of adjacent pages the profile's
// write set is made of (the last may be shorter); 0 under UniformDirty, whose
// write set is drawn page by page.
func (p Profile) writeRun() int {
	if p.UniformDirty {
		return 0
	}
	return min(writeRunLen, p.DirtyPages)
}

// compilePlan derives the profile's access plan from the warm layout: the
// heap (whose bottom DropPages pages are the drop window) and the arenas.
//
// The write set is, under UniformDirty, a uniformly random subset of the
// pool — DirtyPages pages drawn without replacement, seeded from the profile
// name, so run lengths follow the geometric distribution of uniform density,
// which is what the restorer's copy coalescing responds to — and otherwise
// small clusters of adjacent pages at pseudo-random positions.
func compilePlan(prof Profile, heapStart vm.Addr, heapPages int, arenas []pageSpan) *accessPlan {
	heap := pageSpan{heapStart.PageNum() + uint64(prof.DropPages), heapPages - prof.DropPages}
	pool := warmPool{spans: append([]pageSpan{heap}, arenas...)}
	for _, s := range pool.spans {
		pool.total += s.pages
	}

	reads := prof.ReadPages()
	buf := make([]uint64, 0, prof.DropPages+reads+prof.DirtyPages+stackSlack)
	// part closes the list appended since `from`: sorted, and capped so no
	// list can grow into the next.
	part := func(from int) []uint64 {
		s := buf[from:len(buf):len(buf)]
		slices.Sort(s)
		return s
	}
	plan := &accessPlan{}

	for i := 0; i < prof.DropPages; i++ {
		buf = append(buf, heapStart.PageNum()+uint64(i))
	}
	plan.drop = part(0)

	from := len(buf)
	for i := 0; i < reads; i++ {
		buf = append(buf, pool.pickRun(uint64(i)*2654435761, 1))
	}
	plan.reads = part(from)

	from = len(buf)
	if prof.UniformDirty {
		want := min(prof.DirtyPages, pool.total)
		rng := sim.NewRand(hashName(prof.Name) ^ 0xD1274)
		for idx, seen := 0, 0; idx < pool.total && seen < want; idx++ {
			if rng.Intn(pool.total-idx) < want-seen {
				s, i := pool.locate(idx)
				buf = append(buf, s.start+uint64(i))
				seen++
			}
		}
	} else {
		runLen := prof.writeRun()
		for written := 0; written < prof.DirtyPages; {
			run := min(runLen, prof.DirtyPages-written)
			base := pool.pickRun(uint64(written)*0x9E3779B9, run)
			for j := 0; j < run; j++ {
				buf = append(buf, base+uint64(j))
			}
			written += run
		}
	}
	plan.writes = part(from)

	from = len(buf)
	for i := stackSlack; i > 0; i-- {
		buf = append(buf, vm.StackTop.PageNum()-uint64(i))
	}
	plan.stack = part(from)
	return plan
}
