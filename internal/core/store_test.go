package core

import (
	"slices"
	"testing"
	"testing/quick"

	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/vm"
)

// refStore captures what the original, map-based StateStore held: one
// independently copied buffer per resident page (nil = all-zero), keyed by
// VPN. The equivalence tests below assert that restores driven by the sorted
// store leave the process byte-identical to this reference.
type refStore map[uint64][]byte

func captureRefStore(as *vm.AddressSpace) refStore {
	ref := make(refStore)
	for _, vpn := range as.ResidentVPNs() {
		ref[vpn] = as.PeekPage(vpn) // fresh copy, nil for all-zero
	}
	return ref
}

// checkAgainstRef asserts the address space matches the reference store
// exactly: every recorded page reads back identically and no other resident
// page holds data.
func checkAgainstRef(t *testing.T, as *vm.AddressSpace, ref refStore) {
	t.Helper()
	for vpn, want := range ref {
		if got := as.PeekPage(vpn); !pagesEqual(got, want) {
			t.Fatalf("page %#x differs from map-based reference store", vpn)
		}
	}
	for _, vpn := range as.ResidentVPNs() {
		if _, ok := ref[vpn]; ok {
			continue
		}
		if got := as.PeekPage(vpn); got != nil {
			t.Fatalf("page %#x resident with data but absent from reference store", vpn)
		}
	}
}

// TestArenaStoreRestoresByteIdenticalToMapStore runs a request mutation mix
// (scattered dirty pages, a contiguous dirty run, a materialized all-zero
// page, new mappings, fresh stack pages) against both store kinds and checks
// the restored process byte-for-byte against the captured map-based
// reference, plus RestoreStats counts against independently computed values.
func TestArenaStoreRestoresByteIdenticalToMapStore(t *testing.T) {
	for _, store := range []StoreKind{StoreCopy, StoreCoW} {
		t.Run(store.String(), func(t *testing.T) {
			k := kernel.New(kernel.Default())
			p, err := k.Spawn(kernel.ExecSpec{TextPages: 4, DataPages: 4, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			heap := p.AS.HeapBase()
			if _, err := p.AS.Brk(heap + 64*mem.PageSize); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 48; i++ {
				p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), 0xAB00+uint64(i))
			}
			// Page 50: materialized all-zero (non-zero then zero) — the map
			// store kept a real 4 KiB zero buffer for it, the copy store
			// must reproduce the same observable contents.
			p.AS.WriteWord(heap+50*mem.PageSize, 7)
			p.AS.WriteWord(heap+50*mem.PageSize, 0)

			opts := DefaultOptions()
			opts.Store = store
			m, err := NewManager(k, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := captureRefStore(p.AS)
			snap, err := m.TakeSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if snap.Pages != len(ref) {
				t.Fatalf("snapshot pages = %d, reference holds %d", snap.Pages, len(ref))
			}

			// The request: scattered writes, one contiguous run, a fresh
			// mapping with writes, and demand-zero stack touches.
			for _, i := range []int{1, 9, 17, 33} {
				p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize)+64, 0xDEAD)
			}
			for i := 20; i < 28; i++ {
				p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), 0xFEED)
			}
			a, err := p.AS.Mmap(8*mem.PageSize, vm.ProtRW, vm.KindAnon, "req")
			if err != nil {
				t.Fatal(err)
			}
			p.AS.WriteWord(a, 1)
			for i := 0; i < 4; i++ {
				p.AS.ReadWord(vm.StackTop - 256*1024 + vm.Addr(i*mem.PageSize))
			}

			wantDirty := len(p.AS.AppendSoftDirtyVPNs(nil))
			wantMapped := p.AS.MappedPages()

			st, err := m.Restore()
			if err != nil {
				t.Fatal(err)
			}
			// Counts must match the map-based implementation's definitions:
			// dirty = present ∧ soft-dirty before restore; mapped = pages
			// under VMAs before layout reversal; restored = snapshot pages
			// that were dirty (the fresh mapping's dirty pages are not in
			// the snapshot, and no snapshot page lost residency here).
			if st.DirtyPages != wantDirty {
				t.Fatalf("DirtyPages = %d, want %d", st.DirtyPages, wantDirty)
			}
			if st.MappedPages != wantMapped {
				t.Fatalf("MappedPages = %d, want %d", st.MappedPages, wantMapped)
			}
			if want := 4 + 8; st.RestoredPages != want {
				t.Fatalf("RestoredPages = %d, want %d", st.RestoredPages, want)
			}
			if st.DroppedPages != 4 {
				t.Fatalf("DroppedPages = %d, want 4", st.DroppedPages)
			}
			checkAgainstRef(t, p.AS, ref)
			if err := m.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestArenaStoreRestoresUnmappedRegionContents checks the path where
// snapshot pages lose residency entirely (the request munmapped their
// region): the re-created region must be refilled from the store, again
// byte-identical to the reference.
func TestArenaStoreRestoresUnmappedRegionContents(t *testing.T) {
	k := kernel.New(kernel.Default())
	p, err := k.Spawn(kernel.ExecSpec{TextPages: 4, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.AS.Mmap(6*mem.PageSize, vm.ProtRW, vm.KindFile, "cache")
	if err != nil {
		t.Fatal(err)
	}
	// Pages 0,2,4 hold data; 1,3,5 stay zero (never touched → not resident).
	for i := 0; i < 6; i += 2 {
		p.AS.WriteWord(a+vm.Addr(i*mem.PageSize), 0xC0DE+uint64(i))
	}
	m, err := NewManager(k, p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ref := captureRefStore(p.AS)
	if _, err := m.TakeSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := p.AS.Munmap(a, 6*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	st, err := m.Restore()
	if err != nil {
		t.Fatal(err)
	}
	// The three content-bearing pages are restored; the never-resident odd
	// pages were not in the snapshot and refault to zero on demand.
	if st.RestoredPages != 3 {
		t.Fatalf("RestoredPages = %d, want 3", st.RestoredPages)
	}
	checkAgainstRef(t, p.AS, ref)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSeekMatchesLinearScan holds plan's galloping cursor to the one-step
// cursor it replaced: from any position in any sorted list, the first entry
// not below the page sought, and whether it is that page.
func TestSeekMatchesLinearScan(t *testing.T) {
	f := func(raw []uint16, from uint8, vpn uint16) bool {
		vpns := make([]uint64, len(raw))
		for i, v := range raw {
			vpns[i] = uint64(v)
		}
		slices.Sort(vpns)
		vpns = slices.Compact(vpns)
		i := int(from) % (len(vpns) + 1)
		want := i
		for want < len(vpns) && vpns[want] < uint64(vpn) {
			want++
		}
		got, hit := seek(vpns, i, uint64(vpn))
		return got == want && hit == (want < len(vpns) && vpns[want] == uint64(vpn))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStateStoreIndex covers the sorted-index primitives directly.
func TestStateStoreIndex(t *testing.T) {
	st := snapshot{
		ProcessImage: kernel.ProcessImage{VPNs: []uint64{10, 11, 14, 90}},
		pages:        []*[mem.PageSize]byte{new([mem.PageSize]byte), nil, new([mem.PageSize]byte), new([mem.PageSize]byte)},
	}
	for i, vpn := range st.VPNs {
		if got := st.index(vpn); got != i {
			t.Fatalf("index(%d) = %d, want %d", vpn, got, i)
		}
		if !st.has(vpn) {
			t.Fatalf("has(%d) = false", vpn)
		}
	}
	for _, vpn := range []uint64{0, 9, 12, 13, 15, 89, 91} {
		if st.has(vpn) {
			t.Fatalf("has(%d) = true for unrecorded page", vpn)
		}
	}
	if !st.zeroAt(1, nil) || st.zeroAt(0, nil) {
		t.Fatal("zeroAt disagrees with the pages")
	}
}

func TestDiffLayoutsTable(t *testing.T) {
	rw := func(start, end vm.Addr) vm.VMA {
		return vm.VMA{Start: start, End: end, Prot: vm.ProtRW, Kind: vm.KindAnon}
	}
	heap := func(start, end vm.Addr) vm.VMA {
		return vm.VMA{Start: start, End: end, Prot: vm.ProtRW, Kind: vm.KindHeap}
	}
	ro := func(start, end vm.Addr) vm.VMA {
		return vm.VMA{Start: start, End: end, Prot: vm.ProtRead, Kind: vm.KindAnon}
	}
	cases := []struct {
		name                     string
		cur, snap                []vm.VMA
		curBrk, snapBrk          vm.Addr
		unmap, remap, reprotect  int
		firstUnmap, firstRemapLo vm.Addr
	}{
		{name: "both empty"},
		{
			name:  "empty snapshot unmaps everything",
			cur:   []vm.VMA{rw(0x1000, 0x3000), rw(0x5000, 0x6000)},
			unmap: 2, firstUnmap: 0x1000,
		},
		{
			name:  "empty current remaps everything",
			snap:  []vm.VMA{rw(0x1000, 0x3000)},
			remap: 1, firstRemapLo: 0x1000,
		},
		{
			name: "identical layouts are a no-op",
			cur:  []vm.VMA{rw(0x1000, 0x3000), ro(0x8000, 0x9000)},
			snap: []vm.VMA{rw(0x1000, 0x3000), ro(0x8000, 0x9000)},
		},
		{
			name:  "adjacent new regions merge into one unmap",
			cur:   []vm.VMA{rw(0x1000, 0x2000), rw(0x2000, 0x3000), rw(0x3000, 0x4000)},
			snap:  []vm.VMA{rw(0x1000, 0x2000)},
			unmap: 1, firstUnmap: 0x2000,
		},
		{
			name:      "adjacent boundary split keeps separate attrs",
			cur:       []vm.VMA{rw(0x1000, 0x2000), ro(0x2000, 0x3000)},
			snap:      []vm.VMA{rw(0x1000, 0x3000)},
			reprotect: 1,
		},
		{
			name:   "heap-only growth is left to brk",
			cur:    []vm.VMA{heap(0x1000, 0x8000)},
			snap:   []vm.VMA{heap(0x1000, 0x2000)},
			curBrk: 0x8000, snapBrk: 0x2000,
		},
		{
			name:   "heap-only shrinkage is left to brk",
			cur:    []vm.VMA{heap(0x1000, 0x2000)},
			snap:   []vm.VMA{heap(0x1000, 0x6000)},
			curBrk: 0x2000, snapBrk: 0x6000,
		},
		{
			name:   "a heap hole below the break is mapped back",
			cur:    []vm.VMA{heap(0x1000, 0x3000), heap(0x5000, 0x8000)},
			snap:   []vm.VMA{heap(0x1000, 0x8000)},
			curBrk: 0x8000, snapBrk: 0x8000,
			remap: 1, firstRemapLo: 0x3000,
		},
		{
			name:   "a region in a heap hole is unmapped and the hole mapped back",
			cur:    []vm.VMA{heap(0x1000, 0x3000), {Start: 0x3000, End: 0x4000, Prot: vm.ProtRW, Kind: vm.KindFile, Name: "req"}, heap(0x5000, 0x8000)},
			snap:   []vm.VMA{heap(0x1000, 0x8000)},
			curBrk: 0x8000, snapBrk: 0x8000,
			unmap: 1, firstUnmap: 0x3000,
			remap: 1, firstRemapLo: 0x3000,
		},
		{
			name:   "a heap hole below a lowered break is mapped back, the rest left to brk",
			cur:    []vm.VMA{heap(0x1000, 0x2000), heap(0x3000, 0x4000)},
			snap:   []vm.VMA{heap(0x1000, 0x8000)},
			curBrk: 0x4000, snapBrk: 0x8000,
			remap: 1, firstRemapLo: 0x2000,
		},
		{
			name:   "a region in the way of the break growing back is only unmapped",
			cur:    []vm.VMA{heap(0x1000, 0x2000), rw(0x3000, 0x4000)},
			snap:   []vm.VMA{heap(0x1000, 0x6000)},
			curBrk: 0x2000, snapBrk: 0x6000,
			unmap: 1, firstUnmap: 0x3000,
		},
		{
			name:  "region grown at tail unmaps only the extension",
			cur:   []vm.VMA{rw(0x1000, 0x5000)},
			snap:  []vm.VMA{rw(0x1000, 0x3000)},
			unmap: 1, firstUnmap: 0x3000,
		},
		{
			name:  "region replaced at the same range is unmapped and mapped back",
			cur:   []vm.VMA{rw(0x1000, 0x2000), {Start: 0x2000, End: 0x3000, Prot: vm.ProtRW, Kind: vm.KindFile, Name: "req"}},
			snap:  []vm.VMA{rw(0x1000, 0x3000)},
			unmap: 1, firstUnmap: 0x2000,
			remap: 1, firstRemapLo: 0x2000,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := (&diffScratch{}).diff(tc.cur, tc.snap, tc.curBrk, tc.snapBrk)
			if len(d.unmap) != tc.unmap || len(d.remap) != tc.remap || len(d.reprotect) != tc.reprotect {
				t.Fatalf("diff = unmap:%d remap:%d reprotect:%d, want %d/%d/%d\n%+v",
					len(d.unmap), len(d.remap), len(d.reprotect),
					tc.unmap, tc.remap, tc.reprotect, d)
			}
			if tc.unmap > 0 && d.unmap[0].Start != tc.firstUnmap {
				t.Fatalf("first unmap at %v, want %v", d.unmap[0].Start, tc.firstUnmap)
			}
			if tc.remap > 0 && d.remap[0].Start != tc.firstRemapLo {
				t.Fatalf("first remap at %v, want %v", d.remap[0].Start, tc.firstRemapLo)
			}
		})
	}
}

// TestDiffScratchReuse checks that reusing one diffScratch across diffs (as
// the restore hot path does) yields the same plans as fresh computations.
func TestDiffScratchReuse(t *testing.T) {
	rw := func(start, end vm.Addr) vm.VMA {
		return vm.VMA{Start: start, End: end, Prot: vm.ProtRW, Kind: vm.KindAnon}
	}
	var sc diffScratch
	inputs := [][2][]vm.VMA{
		{{rw(0x1000, 0x3000), rw(0x4000, 0x9000)}, {rw(0x1000, 0x3000)}},
		{{rw(0x1000, 0x2000)}, {rw(0x1000, 0x2000), rw(0x7000, 0x8000)}},
		{nil, nil},
		{{rw(0x1000, 0x3000)}, {rw(0x2000, 0x3000)}},
	}
	for i, in := range inputs {
		got := sc.diff(in[0], in[1], 0, 0)
		want := (&diffScratch{}).diff(in[0], in[1], 0, 0)
		if len(got.unmap) != len(want.unmap) || len(got.remap) != len(want.remap) ||
			len(got.reprotect) != len(want.reprotect) {
			t.Fatalf("input %d: reused scratch diff %+v != fresh diff %+v", i, got, want)
		}
		for j := range want.unmap {
			if got.unmap[j] != want.unmap[j] {
				t.Fatalf("input %d: unmap[%d] = %v, want %v", i, j, got.unmap[j], want.unmap[j])
			}
		}
		for j := range want.remap {
			if got.remap[j] != want.remap[j] {
				t.Fatalf("input %d: remap[%d] = %v, want %v", i, j, got.remap[j], want.remap[j])
			}
		}
	}
}

func TestRunsOfEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		in   []uint64
		want []vpnRun
	}{
		{name: "empty", in: nil, want: nil},
		{name: "single", in: []uint64{5}, want: []vpnRun{{5, 1}}},
		{name: "one long run", in: []uint64{2, 3, 4, 5}, want: []vpnRun{{2, 4}}},
		{name: "all gaps", in: []uint64{1, 3, 5, 7}, want: []vpnRun{{1, 1}, {3, 1}, {5, 1}, {7, 1}}},
		{name: "adjacent boundary", in: []uint64{9, 10, 12}, want: []vpnRun{{9, 2}, {12, 1}}},
		{name: "max vpn boundary", in: []uint64{^uint64(0) - 1, ^uint64(0)}, want: []vpnRun{{^uint64(0) - 1, 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := appendRuns(nil, tc.in)
			if len(got) != len(tc.want) {
				t.Fatalf("appendRuns(nil, %v) = %+v, want %+v", tc.in, got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("appendRuns(nil, %v) = %+v, want %+v", tc.in, got, tc.want)
				}
			}
		})
	}
}

// TestAppendRunsReusesBuffer pins the scratch-reuse contract the restore path is built
// on: appending into a recycled buffer must not retain stale state.
func TestAppendRunsReusesBuffer(t *testing.T) {
	buf := appendRuns(nil, []uint64{1, 2, 3})
	buf = appendRuns(buf[:0], []uint64{7})
	if len(buf) != 1 || buf[0] != (vpnRun{7, 1}) {
		t.Fatalf("reused buffer = %+v, want [{7 1}]", buf)
	}
}

// TestFirstSnapshotSizesItsBuffersOnce: a first snapshot lends one page per
// resident page that holds bytes and none for the lazily-zero ones,
// including when those are the last pages visited and the page in hand goes
// back unused, and allocates its index once, at the resident count, under
// both trackers. Releasing the manager returns every lent page.
func TestFirstSnapshotSizesItsBuffersOnce(t *testing.T) {
	for _, tracker := range []TrackerKind{TrackSoftDirty, TrackUffd} {
		opts := DefaultOptions()
		opts.Tracker = tracker
		k := kernel.New(kernel.Default())
		p, err := k.Spawn(kernel.ExecSpec{TextPages: 8, DataPages: 4, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		heap := p.AS.HeapBase()
		if _, err := p.AS.Brk(heap + 64*mem.PageSize); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if i%4 == 0 {
				p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), 0x1000+uint64(i))
			} else {
				p.AS.TouchPage((heap + vm.Addr(i*mem.PageSize)).PageNum())
			}
		}
		// The highest resident pages are the stack's; make sure they are
		// resident and zero, so the walk ends on pages that take no bytes.
		p.AS.TouchPage((vm.StackTop - mem.PageSize).PageNum())
		m, err := NewManager(k, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.TakeSnapshot(); err != nil {
			t.Fatal(err)
		}
		if err := m.Verify(); err != nil {
			t.Fatal(err)
		}
		st := m.snap
		resident, holding := p.AS.ResidentPages(), contentPages(p.AS)
		if holding == 0 || holding == resident {
			t.Fatalf("tracker %v: %d of %d resident pages hold bytes; the test needs both kinds", tracker, holding, resident)
		}
		kept := 0
		for _, pg := range st.pages {
			if pg != nil {
				kept++
			}
		}
		if kept != holding || k.Phys.Lent() != holding {
			t.Errorf("tracker %v: the store keeps %d pages, %d are lent; want both %d (pages holding bytes)",
				tracker, kept, k.Phys.Lent(), holding)
		}
		if st.len() != resident || len(st.pages) != resident || cap(st.VPNs) != resident || cap(st.pages) != resident {
			t.Errorf("tracker %v: index holds %d pages, %d page pointers (caps %d, %d); %d resident",
				tracker, st.len(), len(st.pages), cap(st.VPNs), cap(st.pages), resident)
		}
		m.Release()
		if k.Phys.Lent() != 0 {
			t.Errorf("tracker %v: %d pages still lent after the manager's release", tracker, k.Phys.Lent())
		}
	}
}

// contentPages counts as's resident pages that hold bytes, the pages a copy
// store keeps.
func contentPages(as *vm.AddressSpace) int {
	var buf [mem.PageSize]byte
	n := 0
	for _, vpn := range as.ResidentVPNs() {
		if zero, ok := as.PeekPageInto(vpn, buf[:]); ok && !zero {
			n++
		}
	}
	return n
}
