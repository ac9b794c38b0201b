// Package groundhog is a reproduction of "Groundhog: Efficient Request
// Isolation in FaaS" (Alzayat, Mace, Druschel, Garg — EuroSys 2023) as a Go
// library, including every substrate the paper's system depends on: a
// simulated Linux-like kernel (physical frames, virtual address spaces with
// soft-dirty tracking and CoW fork, /proc, ptrace), the Groundhog manager
// with its in-memory snapshot/restore facility, an OpenWhisk-style FaaS
// platform, the fork/FAASM/no-op baselines, the paper's 58-benchmark
// catalog, and a harness that regenerates every evaluation table and figure.
//
// Start with ARCHITECTURE.md for the package map, the data paths (the
// request, the restore fast path, the UFFD dirty log, clone), and the table
// of invariants with the tests that pin them; bench/README.md documents the
// benchmark JSONs and the re-baseline workflow, and examples/ holds runnable
// walkthroughs. The figures come from the CLI (-quick for reduced scale):
//
//	go run ./cmd/ghbench -e all
//
// # The request
//
// A request's page accesses are a pure function of the warm layout and the
// function's profile, so runtimes compiles them once per warm image into an
// immutable access plan — drop window, read set, write set, stack scribble,
// each a page list in address order — and Instance.InvokeOn replays it
// through vm.AddressSpace.TouchPages / WriteWords: one access loop that
// resolves a region once per run of pages inside it, takes the fault path
// only for an entry that needs it, and charges the list at once. Clones and
// fork children share the donor's plan. Virtual time is the same as page by
// page — charges are integer sums and a page faults once whatever the order
// — which is what bench/e2e's runtimes.invoke_on.ns rung is free to shrink.
//
// # The restore fast path
//
// Restore cost is the system's product (§4.4): it must be proportional to
// what a request actually dirtied. The manager therefore keeps its snapshot
// in an arena-backed StateStore — a sorted VPN index over one contiguous byte
// arena (plus a parallel frame slice for the copy-on-write store of §5.5) —
// so membership tests are binary searches, page contents are slice views,
// and snapshot memory is a handful of allocations rather than one small
// buffer per page:
//
//	vpns   [v0 v1 v2 ...]          sorted page numbers (the index)
//	off    [o0 -1 o1 ...]          arena offset per page, -1 = all-zero
//	arena  [page0 | page2 | ...]   one contiguous allocation
//
// Restore itself is run-oriented and allocation-free at steady state: the
// current layout is read into a reusable region buffer (procfs.MapsRegions),
// and what the request changed comes out of three logs the address space
// keeps since the last ClearSoftDirty — the pages written (dirty), the pages
// that became resident (fresh) and the pages that lost their frame (lost:
// madvise, munmap, a brk shrink, the restorer's own munmap, an mremap move
// away) — not out of a walk of the resident set; the pagemap read is charged per region and
// per mapped page, not re-performed. One merge of dirty ∪ lost against the
// sorted VPN index gives the restore set (a dirty page; a lost one that was
// not zero in the snapshot), one of the fresh list the madvise set, and
// maximal runs of contiguous pages are rolled back with single batched pokes
// (vm.AddressSpace.PokePageRun / PokeFrameRun) straight out of the arena. So
// a Python or Node request, which maps and unmaps scratch regions every
// time, costs the host what it dirtied, faulted in and dropped, like a C one.
// There is one restore path: nothing disarms the logs. An mremap move is
// logged as Linux reports it — the pages it takes away in lost, the pages it
// brings to new numbers in fresh and dirty, soft-dirty as the kernel marks a
// moved PTE — and the tracker is fixed before the first ClearSoftDirty. The
// exact page-table walk the logs replace is the tests' reference restore
// (internal/core/exact_test.go): twin managers serve one request, one
// restored each way, and must report the same RestoreStats and leave the
// same bytes (TestFastAndSlowRestoreAgree,
// TestLoggedAndExactRestoreAgreeOnRandomRequests, TestRestoreAfterDrops).
// The virtual charge is a whole-page copy per page, as in the paper; the
// host copies only each page's soft-dirty extent (vm.PTE.Extent over
// mem.PhysMem.RestoreExtent / CopyExtent) — the byte range vm's access
// loop widened since the last ClearSoftDirty (WriteWords and its one-page
// form WriteWord: the only function-side writer of frame bytes), or the
// whole page if the page got its frame (or, moved, its number) during the
// epoch. Bytes outside the extent were not written and
// equal the snapshot already: the argument the soft-dirty bit itself rests
// on, one level down. After the first restore has sized the
// manager's scratch buffers, rolling back a request performs zero heap
// allocations — pinned by TestRestoreSteadyStateZeroAllocs (both state
// stores), TestRestoreLeftoverMappingZeroAllocs (a scratch mapping left
// behind) and TestRestoreMovedMappingZeroAllocs (a mapping moved); what the path
// costs the host is bench/e2e's core.restore.ns rung.
//
// The UFFD tracker (the §4.3 ablation the paper rejected) runs the same code
// and differs in what the scan is charged: each write-protect fault appends
// the page to the address space's incremental sorted dirty log (the simulated
// equivalent of the user-space fault handler accumulating the dirty set),
// ClearSoftDirty empties the log, an mremap move adds the pages it moves in
// (the handler's UFFD_EVENT_REMAP), and the restore reads it back — plus the
// fresh and lost sets — through the append-style accessors
// vm.AddressSpace.AppendSoftDirtyVPNs and AppendFreshVPNs / AppendLostVPNs
// into the same scratch buffers, under either tracker. The UFFD scan phase
// is charged honestly: per dirty page for the log read, plus the
// mincore-style kernel.CostModel.ResidentScanPerPage per resident page for
// the paged-in check. TestRestoreUffdSteadyStateZeroAllocs
// pins this path at zero allocations too, and re-snapshots recycle the
// previous snapshot's arena through a manager-level store pool instead of
// reallocating it.
//
// The same scenario — in both tracker variants — is exported as a CLI
// suite that also writes a machine-readable BENCH_restore.json (an array
// with one entry per tracker: virtual µs/restore, page counters) for
// tracking across commits:
//
//	go run ./cmd/ghbench -e bench-restore
//
// # Snapshot-clone cold starts
//
// Every container of a deployment used to pay the full Fig. 1 pipeline —
// environment instantiation, runtime initialization, data initialization,
// snapshot — even though siblings of the same function end up with
// byte-identical snapshots. Scale-out now clones instead: the deployment's
// first container runs the pipeline once and its manager exports a
// core.SnapshotImage (for the CoW state store, references to the already
// frozen frames; for the copy store, frames materialized once from the
// arena, with all-zero pages sharing a single lazily-zero frame, like the
// kernel zero page). Each further container is spawned directly from the
// image — kernel.Kernel.SpawnFromImage builds the address space from the
// recorded layout (vm.NewFromLayout) and maps every recorded page
// copy-on-write onto the image's frames (vm.AddressSpace.MapFrameCoW) — and
// core.NewManagerFromSnapshot leaves its manager exactly where TakeSnapshot
// leaves a fully-initialized sibling's, with the clone's state store sharing
// the same frames. The honest price is kernel.CostModel.CloneFromSnapshotBase
// plus ClonePTEPerPage per page: hundreds of microseconds against hundreds
// of milliseconds, and fleet physical memory grows with the pages containers
// actually dirty rather than with the container count.
//
// faas.Platform gates the path behind CloneScaleOut (the paper's experiments
// measure full cold starts); with it enabled, AddContainer clones from the
// sibling snapshot, ColdStartStats.ClonedFrom names the donor, and
// Platform.Memory reports the fleet's state-store bytes, resident pages, and
// cross-container shared frames (also surfaced per deployment by
// cmd/ghserve's /deployments endpoint). The equivalence guarantee — a cloned
// container and a fully-initialized sibling serve the same requests with
// identical RestoreStats page counts, under both trackers — is pinned by
// TestCloneEquivalence (core) and TestCloneEquivalentRestores (faas). The
// scale-out sweep is exported as a benchmark that writes
// BENCH_coldstart.json (full vs. clone virtual µs under both state stores,
// fleet frames in use at 1/4/16 containers):
//
//	go run ./cmd/ghbench -e bench-coldstart
//
// # Clone-aware fleet scheduling and the image lifecycle
//
// The fleet simulation (internal/trace) is the clone subsystem's first
// end-to-end consumer. With trace.Config.CloneScaleOut, the dispatcher's
// scale-ups route through the snapshot-clone path — FunctionStats splits
// cold starts into full vs. clone, with per-path latency summaries and the
// summed virtual cold-start bill — and the keep-alive reaper gains a second
// tier: with ScaleToZeroAfter set, a pool whose last container has idled
// past the longer TTL scales to zero, and faas.Platform.EvictImage releases
// the deployment's snapshot image (core.SnapshotImage has one holder;
// frames return to PhysMem once no clone references them — pinned by
// TestEvictImageReturnsFrames and TestFleetScaleToZeroEvictsImage). The next
// scale-up re-runs the full pipeline and re-exports lazily. The fleet
// comparison — keep-alive-only vs. clone scale-out under identical bursty
// arrivals — is exported as a benchmark that writes BENCH_fleet.json:
//
//	go run ./cmd/ghbench -e bench-fleet
//
// # Benchmark regression gate
//
// Committed baselines for the benchmark JSONs live under bench/baselines/,
// each generated at the scale experiments.Registry records for its suite
// (-quick for all but bench-fleet-xl) and pinned by digest in
// bench/baselines/SHA256SUMS. Every one is the output of a seeded
// simulation, so the gate has one rule: CI regenerates the JSONs on every
// push (ghbench -e bench-all) and runs cmd/benchdiff over the two
// directories, and any pair that is not byte-identical — or any file without
// its partner — fails the build, naming the leaves that moved. Host-time
// figures live in bench/e2e (BENCHMARK.json), not here. After an intentional
// change, re-baseline by regenerating and committing the files together
// with SHA256SUMS (bench/README.md walks through it):
//
//	go run ./cmd/ghbench -e bench-all -out bench/baselines
//	(cd bench/baselines && sha256sum BENCH_*.json > SHA256SUMS)
package groundhog
