package core_test

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"groundhog/internal/core"
	"groundhog/internal/faults"
	"groundhog/internal/kernel"
	"groundhog/internal/mem"
	"groundhog/internal/sim"
	"groundhog/internal/vm"
)

// cloneDonor spawns a warm donor process with a grown, content-bearing heap,
// attaches a manager, and takes the snapshot a clone will be spawned from.
func cloneDonor(t *testing.T, opts core.Options, heapPages int) (*kernel.Kernel, *kernel.Process, *core.Manager) {
	t.Helper()
	k := kernel.New(kernel.Default())
	p, err := k.Spawn(kernel.ExecSpec{TextPages: 8, DataPages: 8, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	heap := p.AS.HeapBase()
	if _, err := p.AS.Brk(heap + vm.Addr(heapPages*mem.PageSize)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < heapPages; i++ {
		if i%3 != 0 { // leave every third page all-zero to exercise the zero-frame path
			p.AS.WriteWord(heap+vm.Addr(i*mem.PageSize), 0xFACE00+uint64(i))
		} else {
			p.AS.TouchPage(heap.PageNum() + uint64(i))
		}
	}
	m, err := core.NewManager(k, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TakeSnapshot(); err != nil {
		t.Fatal(err)
	}
	return k, p, m
}

// cloneRequest applies one identical "request" to a process: dirty a run and
// a scatter of heap pages, drop and repopulate a window, and map a scratch
// region (unmapping the previous one) — the full mix restoration must undo.
func cloneRequest(t *testing.T, p *kernel.Process, seq uint64, churn *vm.Addr) {
	t.Helper()
	as := p.AS
	heap := as.HeapBase()
	for i := 0; i < 8; i++ {
		as.WriteWord(heap+vm.Addr(i*mem.PageSize), 0xBEEF00+seq)
	}
	for i := 0; i < 6; i++ {
		as.WriteWord(heap+vm.Addr((10+i*3)*mem.PageSize), seq)
	}
	if err := as.Madvise(heap+vm.Addr(30*mem.PageSize), 4*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		as.DirtyPage(heap.PageNum()+30+uint64(i), 0xD0+seq)
	}
	if *churn != 0 {
		if err := as.Munmap(*churn, 8*mem.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	a, err := as.Mmap(8*mem.PageSize, vm.ProtRW, vm.KindFile, fmt.Sprintf("scratch:%d", seq))
	if err != nil {
		t.Fatal(err)
	}
	as.DirtyPage(a.PageNum(), seq)
	*churn = a
	for _, th := range p.Threads {
		th.Regs.GP[0] = seq
	}
}

// TestCloneEquivalence is the equivalence guarantee of the snapshot-clone
// cold start: a cloned container and its fully-initialized donor serve the
// same request sequence and produce identical RestoreStats page counts —
// under both write trackers and both state stores.
func TestCloneEquivalence(t *testing.T) {
	for _, tracker := range []core.TrackerKind{core.TrackSoftDirty, core.TrackUffd} {
		for _, store := range []core.StoreKind{core.StoreCopy, core.StoreCoW} {
			t.Run(fmt.Sprintf("%s/%s", tracker, store), func(t *testing.T) {
				opts := core.DefaultOptions()
				opts.Tracker = tracker
				opts.Store = store
				k, donorProc, donor := cloneDonor(t, opts, 48)

				img, err := donor.ExportImage(nil)
				if err != nil {
					t.Fatal(err)
				}
				clone, err := core.NewManagerFromSnapshot(k, img, opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				// A fresh clone is already byte-identical to the snapshot.
				if err := clone.Verify(); err != nil {
					t.Fatalf("fresh clone fails verification: %v", err)
				}

				var donorChurn, cloneChurn vm.Addr
				for seq := uint64(1); seq <= 3; seq++ {
					cloneRequest(t, donorProc, seq, &donorChurn)
					ds, err := donor.Restore()
					if err != nil {
						t.Fatal(err)
					}
					cloneRequest(t, clone.Process(), seq, &cloneChurn)
					cs, err := clone.Restore()
					if err != nil {
						t.Fatal(err)
					}
					if ds.MappedPages != cs.MappedPages || ds.DirtyPages != cs.DirtyPages ||
						ds.RestoredPages != cs.RestoredPages || ds.DroppedPages != cs.DroppedPages ||
						ds.LayoutOps != cs.LayoutOps {
						t.Fatalf("cycle %d: donor counts %+v, clone counts %+v", seq, ds, cs)
					}
					if ds.Total != cs.Total {
						t.Fatalf("cycle %d: donor restore %v, clone restore %v", seq, ds.Total, cs.Total)
					}
					if err := donor.Verify(); err != nil {
						t.Fatalf("donor cycle %d: %v", seq, err)
					}
					if err := clone.Verify(); err != nil {
						t.Fatalf("clone cycle %d: %v", seq, err)
					}
				}
			})
		}
	}
}

// TestCloneSharesFramesCoW pins the memory story: spawning additional clones
// from one image allocates no frames up front, and each clone's divergence is
// bounded by what it writes.
func TestCloneSharesFramesCoW(t *testing.T) {
	k, _, donor := cloneDonor(t, core.DefaultOptions(), 48)
	img, err := donor.ExportImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	base := k.Phys.InUse()
	var clones []*core.Manager
	for i := 0; i < 3; i++ {
		c, err := core.NewManagerFromSnapshot(k, img, core.DefaultOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		clones = append(clones, c)
	}
	if got := k.Phys.InUse(); got != base {
		t.Fatalf("3 clones allocated %d frames before serving; want 0", got-base)
	}
	// One clone writes one page: exactly one private frame appears.
	clones[0].Process().AS.WriteWord(clones[0].Process().AS.HeapBase(), 0x77)
	if got := k.Phys.InUse(); got != base+1 {
		t.Fatalf("one dirty page cost %d frames; want 1", got-base)
	}
	// The other clones and the donor still read snapshot content.
	if got := clones[1].Process().AS.ReadWord(clones[1].Process().AS.HeapBase()); got == 0x77 {
		t.Fatal("sibling clone observed another clone's write")
	}
}

// TestCloneSurvivesDonorExit: the image (and clones spawned from it) remain
// valid after the donor process exits — scale-out does not depend on donor
// container lifetime.
func TestCloneSurvivesDonorExit(t *testing.T) {
	k, donorProc, donor := cloneDonor(t, core.DefaultOptions(), 48)
	img, err := donor.ExportImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	k.Exit(donorProc)
	clone, err := core.NewManagerFromSnapshot(k, img, core.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.Verify(); err != nil {
		t.Fatalf("clone after donor exit: %v", err)
	}
	var churn vm.Addr
	cloneRequest(t, clone.Process(), 9, &churn)
	if _, err := clone.Restore(); err != nil {
		t.Fatal(err)
	}
	if err := clone.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestCloneChargesHonestCosts: the clone path charges the cost-model knobs,
// and a released image refuses to spawn.
func TestCloneChargesHonestCosts(t *testing.T) {
	k, _, donor := cloneDonor(t, core.DefaultOptions(), 32)
	img, err := donor.ExportImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	meter := sim.NewMeter()
	if _, err := core.NewManagerFromSnapshot(k, img, core.DefaultOptions(), meter); err != nil {
		t.Fatal(err)
	}
	min := k.Cost.CloneFromSnapshotBase + k.Cost.ClonePTEPerPage*sim.Duration(img.Pages())
	if meter.Total() < min {
		t.Fatalf("clone charged %v, below the spawn cost floor %v", meter.Total(), min)
	}
	img.Release()
	if _, err := core.NewManagerFromSnapshot(k, img, core.DefaultOptions(), nil); err == nil {
		t.Fatal("clone from released image accepted")
	}
	if _, err := core.NewManagerFromSnapshot(k, nil, core.DefaultOptions(), nil); err == nil {
		t.Fatal("clone from nil image accepted")
	}
}

// TestExportBeforeSnapshotRejected guards the export precondition.
func TestExportBeforeSnapshotRejected(t *testing.T) {
	k := kernel.New(kernel.Default())
	p, err := k.Spawn(kernel.ExecSpec{TextPages: 2, DataPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewManager(k, p, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ExportImage(nil); err == nil {
		t.Fatal("export before snapshot accepted")
	}
}

// TestImageReleaseUnderLiveClone pins the image's way back: releasing it under
// a live clone frees nothing (the clone holds its own references), a released
// image refuses to clone, tearing the clone down returns physical memory to
// its pre-export count, and Release is idempotent.
func TestImageReleaseUnderLiveClone(t *testing.T) {
	k, _, donor := cloneDonor(t, core.DefaultOptions(), 32)
	before := k.Phys.InUse()
	img, err := donor.ExportImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	exported := k.Phys.InUse()
	if exported <= before {
		t.Fatalf("copy-store export materialized no frames (%d -> %d)", before, exported)
	}
	clone, err := core.NewManagerFromSnapshot(k, img, core.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	withClone := k.Phys.InUse() // the clone's store and PTEs share the frames
	img.Release()
	// The clone still references every image frame, so Release frees
	// nothing yet — it only drops the image's refcounts.
	if k.Phys.InUse() != withClone {
		t.Fatalf("image Release freed %d frames out from under a live clone",
			withClone-k.Phys.InUse())
	}
	if _, err := core.NewManagerFromSnapshot(k, img, core.DefaultOptions(), nil); err == nil {
		t.Fatal("clone from released image accepted")
	}
	// Tearing the clone down frees the frames the image and clone shared.
	k.Exit(clone.Process())
	clone.Release()
	if got := k.Phys.InUse(); got != before {
		t.Fatalf("%d frames in use after image and clone teardown, want %d", got, before)
	}
	img.Release() // idempotent
}

// TestManagerReleaseFreesCoWStore: releasing a CoW-store manager returns the
// snapshot's frame references (the half the kernel's process exit does not
// free).
func TestManagerReleaseFreesCoWStore(t *testing.T) {
	opts := core.DefaultOptions()
	opts.Store = core.StoreCoW
	k, p, m := cloneDonor(t, opts, 32)
	k.Exit(p)
	if k.Phys.InUse() == 0 {
		t.Fatal("process exit alone freed the snapshot store's frames")
	}
	m.Release()
	if got := k.Phys.InUse(); got != 0 {
		t.Fatalf("%d frames leaked after manager release", got)
	}
	m.Release() // idempotent
}

// TestExportImageChargesAndCuts pins the export loop per store: the copy store
// pays SnapshotPerPage for each page with content (a materialised frame) and
// SnapshotCoWPerPage for each zero page (a reference on the shared zero
// frame), the CoW store SnapshotCoWPerPage for every page; and an injected
// export fault, cut before the first page, between two and after the last,
// wraps faults.ErrInjected and leaves no frame behind.
func TestExportImageChargesAndCuts(t *testing.T) {
	for _, store := range []core.StoreKind{core.StoreCopy, core.StoreCoW} {
		t.Run(store.String(), func(t *testing.T) {
			opts := core.DefaultOptions()
			opts.Store = store
			k, p, m := cloneDonor(t, opts, 24)
			var zero, content sim.Duration
			for _, vpn := range p.AS.ResidentVPNs() {
				if p.AS.PeekPage(vpn) == nil {
					zero++
				} else {
					content++
				}
			}
			if zero == 0 || content == 0 {
				t.Fatalf("donor has %d zero and %d content pages; the table needs both", zero, content)
			}
			want := k.Cost.SnapshotPerPage*content + k.Cost.SnapshotCoWPerPage*zero
			if store == core.StoreCoW {
				want = k.Cost.SnapshotCoWPerPage * (content + zero)
			}
			before := k.Phys.InUse()
			meter := sim.NewMeter()
			img, err := m.ExportImage(meter)
			if err != nil {
				t.Fatal(err)
			}
			if meter.Total() != want {
				t.Fatalf("export of %d content + %d zero pages charged %v, want %v", content, zero, meter.Total(), want)
			}
			img.Release()
			if got := k.Phys.InUse(); got != before {
				t.Fatalf("%d frames in use after export and release, want %d", got, before)
			}

			pages := int(zero + content)
			var first, mid, last bool
			for seed := uint64(0); seed < 4000 && !(first && mid && last); seed++ {
				k.Faults = faults.New(faults.Plan{Seed: seed, Schedule: map[faults.Site][]uint64{faults.SiteSnapshotExport: {1}}})
				_, err := m.ExportImage(nil)
				if !errors.Is(err, faults.ErrInjected) {
					t.Fatalf("seed %d: scheduled export fault returned %v", seed, err)
				}
				var n int
				if _, serr := fmt.Sscanf(err.Error(), "core: snapshot export aborted after %d pages", &n); serr != nil {
					t.Fatalf("seed %d: %q does not say how far the export got", seed, err)
				}
				first, mid, last = first || n == 0, mid || (n > 0 && n < pages), last || n == pages
				if got := k.Phys.InUse(); got != before {
					t.Fatalf("seed %d: export cut after %d of %d pages left %d frames, want %d", seed, n, pages, got, before)
				}
			}
			if !(first && mid && last) {
				t.Fatalf("cuts never landed everywhere: before the first page %v, mid-run %v, after the last %v", first, mid, last)
			}
		})
	}
}

// TestImageLifecycleBalancesFrames is the ownership property of the clone
// path: an image is exported, cloned k times, copied to a second kernel (a
// transfer fault aborting the first attempt in half the cases) and cloned
// there; image, copy and clones are then given back in random order. Part way
// through, every clone still standing serves a request and restores to a
// state Verify accepts — whatever has been released around it — and at the
// end both kernels hold exactly the frames they held before the export.
func TestImageLifecycleBalancesFrames(t *testing.T) {
	f := func(seed uint64, clones uint8, cow, transferFault bool) bool {
		opts := core.DefaultOptions()
		if cow {
			opts.Store = core.StoreCoW
		}
		src, _, donor := cloneDonor(t, opts, 48)
		dst := kernel.New(kernel.Default())
		srcBefore, dstBefore := src.Phys.InUse(), dst.Phys.InUse()
		img, err := donor.ExportImage(nil)
		if err != nil {
			t.Error(err)
			return false
		}
		if transferFault {
			dst.Faults = faults.New(faults.Plan{Seed: seed, Schedule: map[faults.Site][]uint64{faults.SiteImageTransfer: {1}}})
			if _, err := core.CopyImageTo(dst, img, nil); !errors.Is(err, faults.ErrInjected) {
				t.Errorf("scheduled transfer fault returned %v", err)
				return false
			}
			if got := dst.Phys.InUse(); got != dstBefore {
				t.Errorf("aborted transfer left %d frames on the destination, want %d", got, dstBefore)
				return false
			}
		}
		remote, err := core.CopyImageTo(dst, img, nil)
		if err != nil {
			t.Error(err)
			return false
		}

		// standing maps each clone still alive to its kernel; giveBack holds
		// one release per holder of frames: the image, the copy, every clone.
		standing := map[*core.Manager]*kernel.Kernel{}
		giveBack := []func(){img.Release, remote.Release}
		for i := 0; i < 1+int(clones%4); i++ {
			k, from := src, img
			if i%2 == 1 {
				k, from = dst, remote
			}
			c, err := core.NewManagerFromSnapshot(k, from, opts, nil)
			if err != nil {
				t.Error(err)
				return false
			}
			standing[c] = k
			giveBack = append(giveBack, func() {
				k.Exit(c.Process())
				c.Release()
				delete(standing, c)
			})
		}
		rng := sim.NewRand(seed)
		for i := len(giveBack) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			giveBack[i], giveBack[j] = giveBack[j], giveBack[i]
		}
		serveAt := rng.Intn(len(giveBack) + 1)
		for i := 0; ; i++ {
			if i == serveAt {
				for c := range standing {
					var churn vm.Addr
					cloneRequest(t, c.Process(), seed|1, &churn)
					if _, err := c.Restore(); err != nil {
						t.Error(err)
						return false
					}
					if err := c.Verify(); err != nil {
						t.Errorf("clone after %d of %d releases: %v", i, len(giveBack), err)
						return false
					}
				}
			}
			if i == len(giveBack) {
				break
			}
			giveBack[i]()
		}
		if got := src.Phys.InUse(); got != srcBefore {
			t.Errorf("source kernel holds %d frames after every release, want %d", got, srcBefore)
			return false
		}
		if got := dst.Phys.InUse(); got != dstBefore {
			t.Errorf("destination kernel holds %d frames after every release, want %d", got, dstBefore)
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
