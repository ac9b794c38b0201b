package faas

import (
	"reflect"
	"testing"
	"time"

	"groundhog/internal/isolation"
	"groundhog/internal/kernel"
	"groundhog/internal/runtimes"
	"groundhog/internal/sim"
)

func testProfile() runtimes.Profile {
	return runtimes.Profile{
		Name:       "fn",
		Lang:       runtimes.LangPython,
		Exec:       8 * time.Millisecond,
		TotalPages: 3000,
		DirtyPages: 150,
		InputKB:    4,
		OutputKB:   2,
	}
}

func newPlatform(t *testing.T, mode isolation.Mode, containers int) *Platform {
	t.Helper()
	pl, err := NewPlatform(kernel.Default(), testProfile(), mode, containers, 42)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// liveProcesses counts the kernel's live processes: the entries of its
// process table, read by reflection since no production code needs the
// count.
func liveProcesses(k *kernel.Kernel) int {
	return reflect.ValueOf(k).Elem().FieldByName("procs").Len()
}

func TestColdStartPhases(t *testing.T) {
	pl := newPlatform(t, isolation.ModeGH, 1)
	cs := pl.Containers()[0].ColdStart()
	if cs.EnvInstantiation <= 0 || cs.RuntimeInit <= 0 {
		t.Fatalf("cold start phases missing: %+v", cs)
	}
	if cs.StrategyInit <= 0 {
		t.Fatal("GH cold start must include snapshotting")
	}
	if cs.Total < cs.EnvInstantiation+cs.RuntimeInit+cs.StrategyInit {
		t.Fatalf("total %v below phase sum", cs.Total)
	}
	// Runtime init dominates env instantiation for Python (Fig. 1).
	base := newPlatform(t, isolation.ModeBase, 1)
	if base.Containers()[0].ColdStart().StrategyInit != 0 {
		t.Fatal("BASE cold start has no snapshot phase")
	}
}

func TestClosedLoopLatencies(t *testing.T) {
	pl := newPlatform(t, isolation.ModeBase, 1)
	stats, err := pl.RunClosedLoop(10, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 10 {
		t.Fatalf("got %d stats", len(stats))
	}
	prof := testProfile()
	for i, st := range stats {
		if st.Invoker < prof.Exec*9/10 { // exec is jittered ~1%
			t.Fatalf("request %d invoker %v far below exec %v", i, st.Invoker, prof.Exec)
		}
		if st.E2E <= st.Invoker {
			t.Fatalf("request %d E2E %v not above invoker %v", i, st.E2E, st.Invoker)
		}
		if st.Restored {
			t.Fatal("BASE restored state")
		}
	}
}

func TestGHLatencyProfileUnderLowLoad(t *testing.T) {
	base := newPlatform(t, isolation.ModeBase, 1)
	gh := newPlatform(t, isolation.ModeGH, 1)
	bs, err := base.RunClosedLoop(12, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := gh.RunClosedLoop(12, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var bsum, gsum sim.Duration
	for i := range bs {
		bsum += bs[i].Invoker
		gsum += gs[i].Invoker
	}
	if gsum <= bsum {
		t.Fatalf("GH invoker latency %v not above BASE %v", gsum, bsum)
	}
	// But the in-function overhead is bounded: well under 2x for this
	// profile (the paper's median is 1.5%).
	if gsum > bsum*3/2 {
		t.Fatalf("GH overhead implausibly high: %v vs %v", gsum, bsum)
	}
	// Restores happened and were off the critical path.
	for _, st := range gs {
		if !st.Restored || st.Cleanup <= 0 {
			t.Fatal("GH did not restore between requests")
		}
	}
}

func TestGHRestoreGatesNextRequest(t *testing.T) {
	pl := newPlatform(t, isolation.ModeGH, 1)
	// Zero think time: the next request arrives while restoration runs and
	// must be buffered (§4.5); its E2E includes the wait.
	stats, err := pl.RunClosedLoop(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := pl.Containers()[0]
	if c.ready.Sub(0) == 0 {
		t.Fatal("container never had a ready gate")
	}
	// Every request after the first should have waited for a restore.
	for _, st := range stats[1:] {
		if st.E2E < st.Invoker+st.Cleanup/2 {
			// The wait is the previous cleanup; allow slack for jitter.
			t.Fatalf("request did not appear to wait: E2E %v, invoker %v, cleanup %v",
				st.E2E, st.Invoker, st.Cleanup)
		}
	}
}

func TestSaturatedThroughputScalesWithContainers(t *testing.T) {
	tput := func(containers int) float64 {
		pl := newPlatform(t, isolation.ModeBase, containers)
		res, err := pl.RunSaturated(8)
		if err != nil {
			t.Fatal(err)
		}
		return res.RequestsPerSec
	}
	one, four := tput(1), tput(4)
	if four < one*3.2 {
		t.Fatalf("throughput did not scale: 1 core %v, 4 cores %v", one, four)
	}
}

func TestGHThroughputBelowBase(t *testing.T) {
	run := func(mode isolation.Mode) float64 {
		pl := newPlatform(t, mode, 2)
		res, err := pl.RunSaturated(8)
		if err != nil {
			t.Fatal(err)
		}
		return res.RequestsPerSec
	}
	base, gh, nop := run(isolation.ModeBase), run(isolation.ModeGH), run(isolation.ModeGHNop)
	if gh >= base {
		t.Fatalf("GH throughput %v not below BASE %v", gh, base)
	}
	if nop < gh {
		t.Fatalf("GH-NOP throughput %v below GH %v", nop, gh)
	}
}

func TestForkModeOnSingleThreaded(t *testing.T) {
	prof := testProfile()
	prof.Lang = runtimes.LangC
	pl, err := NewPlatform(kernel.Default(), prof, isolation.ModeFork, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := pl.RunClosedLoop(5, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 5 {
		t.Fatalf("stats = %d", len(stats))
	}
	// No leftover child processes.
	if n := liveProcesses(pl.Kern); n != 1 {
		t.Fatalf("processes after run = %d, want 1", n)
	}
}

func TestForkModeRejectsNode(t *testing.T) {
	prof := testProfile()
	prof.Lang = runtimes.LangNode
	if _, err := NewPlatform(kernel.Default(), prof, isolation.ModeFork, 1, 1); err == nil {
		t.Fatal("fork platform accepted a Node function")
	}
}

// TestFaasmModeRejectsNode: FAASM has no WebAssembly build of Node, so the
// platform refuses it at construction, even with no container yet, instead
// of the first request panicking in the runtime.
func TestFaasmModeRejectsNode(t *testing.T) {
	prof := testProfile()
	prof.Lang = runtimes.LangNode
	if _, err := NewPlatformOn(sim.NewEngine(), kernel.New(kernel.Default()), prof, isolation.ModeFaasm, 0, 1); err == nil {
		t.Fatal("FAASM platform accepted a Node function")
	}
}

func TestInterposingCostsShowForLargeInputs(t *testing.T) {
	small := testProfile()
	big := testProfile()
	big.InputKB = 200 // the json benchmark's input
	lat := func(prof runtimes.Profile) sim.Duration {
		pl, err := NewPlatform(kernel.Default(), prof, isolation.ModeGH, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := pl.RunClosedLoop(6, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		var sum sim.Duration
		for _, st := range stats {
			sum += st.Invoker
		}
		return sum / sim.Duration(len(stats))
	}
	if lat(big) <= lat(small) {
		t.Fatal("large inputs did not cost more through the proxy")
	}
}

// The relay copies a message into the manager and out again: an empty one
// is free, and n KB costs the per-KB copy twice.
func TestRelayChargesSendAndReceive(t *testing.T) {
	perKB := kernel.Default().PipePerKB
	for _, tc := range []struct {
		kb   int
		want sim.Duration
	}{
		{-1, 0},
		{0, 0},
		{1, 2 * perKB},
		{200, 400 * perKB},
	} {
		if got := relay(perKB, tc.kb); got != tc.want {
			t.Errorf("relay(%d KB) = %v, want %v", tc.kb, got, tc.want)
		}
	}
}

func TestRequestsRejectedWithoutContainers(t *testing.T) {
	if _, err := NewPlatform(kernel.Default(), testProfile(), isolation.ModeBase, 0, 1); err == nil {
		t.Fatal("platform with zero containers accepted")
	}
}

func TestSaturatedNeedsRequests(t *testing.T) {
	pl := newPlatform(t, isolation.ModeBase, 1)
	if _, err := pl.RunSaturated(0); err == nil {
		t.Fatal("zero-request saturation accepted")
	}
}
