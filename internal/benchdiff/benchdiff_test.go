package benchdiff

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baseline mirrors the shape of BENCH_restore.json (flat array),
// BENCH_coldstart.json (nested fleet array), and BENCH_fleet.json (nested
// per-variant objects) in one document.
const baseline = `[
  {
    "benchmark": "restore-steady-state",
    "tracker": "soft-dirty",
    "iterations": 500,
    "wall_ns_per_restore": 41000,
    "allocs_per_restore": 0,
    "alloc_bytes_per_restore": 12.5,
    "virtual_us_per_restore": 812.4,
    "restored_pages": 128
  },
  {
    "benchmark": "coldstart",
    "mode": "gh",
    "full_cold_start_virtual_us": 632349,
    "steady_clone_virtual_us": 999.7,
    "fleet": [
      {"containers": 1, "frames_in_use": 3191},
      {"containers": 16, "frames_in_use": 3192}
    ]
  },
  {
    "benchmark": "fleet-bursty-mix",
    "keepalive": {"variant": "keepalive", "reaped": 13, "peak_frames_in_use": 708774, "end_frames": 219502},
    "clone_scaleout": {"variant": "clone-scaleout", "reaped": 15, "peak_frames_in_use": 191146, "end_frames": 22532}
  },
  {
    "benchmark": "faults-recovery",
    "lost_requests": 0,
    "leaked_frames": 0,
    "crashes": 7,
    "retry_backoff_virtual_us": 75000
  },
  {
    "benchmark": "workload-scenarios",
    "scenarios": [
      {"scenario": "chain-pipeline", "chains_lost": 0, "slo_met": true}
    ]
  }
]`

func mustCompare(t *testing.T, cur string) []Violation {
	t.Helper()
	vs, err := Compare([]byte(baseline), []byte(cur), 0)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

func TestIdenticalRunsPass(t *testing.T) {
	if vs := mustCompare(t, baseline); len(vs) != 0 {
		t.Fatalf("identical runs produced violations: %v", vs)
	}
}

func TestMachineDependentFieldsIgnored(t *testing.T) {
	cur := strings.Replace(baseline, `"wall_ns_per_restore": 41000`, `"wall_ns_per_restore": 410000`, 1)
	cur = strings.Replace(cur, `"alloc_bytes_per_restore": 12.5`, `"alloc_bytes_per_restore": 999`, 1)
	if vs := mustCompare(t, cur); len(vs) != 0 {
		t.Fatalf("wall/byte noise flagged: %v", vs)
	}
}

// TestInjectedAllocRegressionFails is the acceptance demonstration: the gate
// catches an injected allocation regression on the zero-alloc hot path.
func TestInjectedAllocRegressionFails(t *testing.T) {
	cur := strings.Replace(baseline, `"allocs_per_restore": 0`, `"allocs_per_restore": 3`, 1)
	vs := mustCompare(t, cur)
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "allocation-count regression") {
		t.Fatalf("injected alloc regression not caught: %v", vs)
	}
	// Sub-slack jitter is tolerated.
	cur = strings.Replace(baseline, `"allocs_per_restore": 0`, `"allocs_per_restore": 0.2`, 1)
	if vs := mustCompare(t, cur); len(vs) != 0 {
		t.Fatalf("background-alloc jitter flagged: %v", vs)
	}
}

// TestInjectedVirtualCostDriftFails: >25% drift on a deterministic virtual
// cost fails in both directions.
func TestInjectedVirtualCostDriftFails(t *testing.T) {
	cur := strings.Replace(baseline, `"virtual_us_per_restore": 812.4`, `"virtual_us_per_restore": 1100`, 1)
	vs := mustCompare(t, cur)
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "drift") {
		t.Fatalf("injected slowdown not caught: %v", vs)
	}
	// A large improvement also demands an intentional re-baseline.
	cur = strings.Replace(baseline, `"full_cold_start_virtual_us": 632349`, `"full_cold_start_virtual_us": 100`, 1)
	if vs := mustCompare(t, cur); len(vs) != 1 {
		t.Fatalf("large improvement slipped through: %v", vs)
	}
	// Drift inside the threshold passes.
	cur = strings.Replace(baseline, `"virtual_us_per_restore": 812.4`, `"virtual_us_per_restore": 900`, 1)
	if vs := mustCompare(t, cur); len(vs) != 0 {
		t.Fatalf("in-threshold drift flagged: %v", vs)
	}
}

// TestFrameSharingRegressionFails: the nested fleet frame counts are gated,
// so losing cross-container sharing (frames ballooning at 16 containers)
// fails the build.
func TestFrameSharingRegressionFails(t *testing.T) {
	cur := strings.Replace(baseline, `{"containers": 16, "frames_in_use": 3192}`,
		`{"containers": 16, "frames_in_use": 51056}`, 1)
	vs := mustCompare(t, cur)
	if len(vs) != 1 || !strings.Contains(vs[0].Path, "fleet[1].frames_in_use") {
		t.Fatalf("frame-sharing regression not caught: %v", vs)
	}
}

// TestFleetFrameMetricsGated: the fleet benchmark's peak and post-drain
// frame counts are deterministic and gated; the reap counters are
// informational context.
func TestFleetFrameMetricsGated(t *testing.T) {
	cur := strings.Replace(baseline, `"peak_frames_in_use": 191146`, `"peak_frames_in_use": 700000`, 1)
	vs := mustCompare(t, cur)
	if len(vs) != 1 || !strings.Contains(vs[0].Path, "clone_scaleout.peak_frames_in_use") {
		t.Fatalf("fleet peak-frame regression not caught: %v", vs)
	}
	cur = strings.Replace(baseline, `"end_frames": 22532`, `"end_frames": 219502`, 1)
	vs = mustCompare(t, cur)
	if len(vs) != 1 || !strings.Contains(vs[0].Path, "clone_scaleout.end_frames") {
		t.Fatalf("fleet eviction (end-frames) regression not caught: %v", vs)
	}
	cur = strings.Replace(baseline, `"reaped": 13`, `"reaped": 40`, 1)
	if vs := mustCompare(t, cur); len(vs) != 0 {
		t.Fatalf("informational reap counter flagged: %v", vs)
	}
}

// TestInvariantCountersIdentityGated: the fault suite's lost_requests and
// leaked_frames are pinned at exact identity — any nonzero value is a
// recovery bug, never acceptable drift (even with a generous drift budget,
// and even "improvements" in surrounding informational counters pass while
// the invariant still trips).
func TestInvariantCountersIdentityGated(t *testing.T) {
	cur := strings.Replace(baseline, `"leaked_frames": 0`, `"leaked_frames": 3`, 1)
	vs, err := Compare([]byte(baseline), []byte(cur), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !strings.Contains(vs[0].Path, "leaked_frames") {
		t.Fatalf("leaked-frames violation not caught: %v", vs)
	}
	cur = strings.Replace(baseline, `"lost_requests": 0`, `"lost_requests": 1`, 1)
	vs, err = Compare([]byte(baseline), []byte(cur), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !strings.Contains(vs[0].Path, "lost_requests") {
		t.Fatalf("lost-requests violation not caught: %v", vs)
	}
	// Informational recovery counters may move freely; the virtual backoff
	// figure is drift-gated like every other virtual cost.
	cur = strings.Replace(baseline, `"crashes": 7`, `"crashes": 11`, 1)
	if vs := mustCompare(t, cur); len(vs) != 0 {
		t.Fatalf("informational crash counter flagged: %v", vs)
	}
	cur = strings.Replace(baseline, `"retry_backoff_virtual_us": 75000`, `"retry_backoff_virtual_us": 200000`, 1)
	vs, err = Compare([]byte(baseline), []byte(cur), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !strings.Contains(vs[0].Path, "retry_backoff_virtual_us") {
		t.Fatalf("retry-backoff drift not caught: %v", vs)
	}
}

// TestChainConservationIdentityGated: the scenario suite's chains_lost is an
// invariant counter like lost_requests — a chain abandoned mid-stage must
// fail the gate exactly — and the per-scenario slo_met boolean is
// identity-gated, so a flipped SLO verdict is a violation, not drift.
func TestChainConservationIdentityGated(t *testing.T) {
	cur := strings.Replace(baseline, `"chains_lost": 0`, `"chains_lost": 2`, 1)
	vs, err := Compare([]byte(baseline), []byte(cur), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || !strings.Contains(vs[0].Path, "chains_lost") ||
		!strings.Contains(vs[0].Reason, "invariant") {
		t.Fatalf("chains-lost violation not caught: %v", vs)
	}
	cur = strings.Replace(baseline, `"slo_met": true`, `"slo_met": false`, 1)
	if vs := mustCompare(t, cur); len(vs) != 1 || !strings.Contains(vs[0].Path, "slo_met") {
		t.Fatalf("flipped SLO verdict not caught: %v", vs)
	}
}

func TestMissingAndRelabeledEntriesFail(t *testing.T) {
	cur := strings.Replace(baseline, `"tracker": "soft-dirty"`, `"tracker": "uffd"`, 1)
	vs := mustCompare(t, cur)
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "identity") {
		t.Fatalf("relabeled entry not caught: %v", vs)
	}
	// restored_pages is informational, but its absence is still a shape
	// change the gate reports.
	cur = strings.Replace(baseline, `,
    "restored_pages": 128`, ``, 1)
	vs = mustCompare(t, cur)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Reason, "missing") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing metric not reported: %v", vs)
	}

	// The same rule one level up: in directory mode a baseline that nothing
	// regenerated and a fresh file that nothing gates are both violations,
	// next to a matched pair judged by the leaf rules (here: the relabel).
	bdir, cdir := t.TempDir(), t.TempDir()
	for path, doc := range map[string]string{
		filepath.Join(bdir, "BENCH_paired.json"):      baseline,
		filepath.Join(cdir, "BENCH_paired.json"):      strings.Replace(baseline, `"tracker": "soft-dirty"`, `"tracker": "uffd"`, 1),
		filepath.Join(bdir, "BENCH_stopped.json"):     baseline,
		filepath.Join(cdir, "BENCH_unbaselined.json"): baseline,
		filepath.Join(bdir, "SHA256SUMS"):             "not a benchmark file",
	} {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reports, err := CompareDirs(bdir, cdir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ name, reason string }{
		{"BENCH_paired.json", "identity"},
		{"BENCH_stopped.json", "no current file"},
		{"BENCH_unbaselined.json", "no committed baseline"},
	}
	if len(reports) != len(want) {
		t.Fatalf("CompareDirs reported %d files, want %d: %+v", len(reports), len(want), reports)
	}
	for i, w := range want {
		r := reports[i]
		if r.Name != w.name || len(r.Violations) != 1 || !strings.Contains(r.Violations[0].Reason, w.reason) {
			t.Errorf("report %d = %s %v, want %s with one %q violation", i, r.Name, r.Violations, w.name, w.reason)
		}
		if !strings.Contains(r.Summary, "### "+w.name) || !strings.Contains(r.Summary, ":x:") {
			t.Errorf("%s: summary does not head its own failing table:\n%s", w.name, r.Summary)
		}
	}
}

func TestMalformedJSONRejected(t *testing.T) {
	if _, err := Compare([]byte(`{`), []byte(baseline), 0); err == nil {
		t.Fatal("malformed baseline accepted")
	}
	if _, err := Compare([]byte(baseline), []byte(`nope`), 0); err == nil {
		t.Fatal("malformed current accepted")
	}
}

// perSecDoc mirrors the engine-speed surface of BENCH_fleet_xl.json: a
// throughput floor, a boolean wall-budget flag, and an informational
// wall-clock figure.
const perSecDoc = `[
  {
    "benchmark": "fleet-xl-million",
    "engine_wall_seconds": 11.5,
    "engine_requests_per_sec": 100000,
    "engine_retained_allocs_per_request": 0.001,
    "completed_under_30s_wall": true,
    "reached_million_requests": true
  }
]`

func comparePerSec(t *testing.T, cur string) []Violation {
	t.Helper()
	vs, err := Compare([]byte(perSecDoc), []byte(cur), 0)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

func TestThroughputFloorOneSided(t *testing.T) {
	// Within the floor (half the baseline) and above it (faster): both pass.
	for _, cur := range []string{
		strings.Replace(perSecDoc, `"engine_requests_per_sec": 100000`, `"engine_requests_per_sec": 50000`, 1),
		strings.Replace(perSecDoc, `"engine_requests_per_sec": 100000`, `"engine_requests_per_sec": 400000`, 1),
	} {
		if vs := comparePerSec(t, cur); len(vs) != 0 {
			t.Fatalf("throughput within the one-sided floor flagged: %v", vs)
		}
	}
	// A collapse below PerSecFloorRatio fails.
	cur := strings.Replace(perSecDoc, `"engine_requests_per_sec": 100000`, `"engine_requests_per_sec": 20000`, 1)
	vs := comparePerSec(t, cur)
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "throughput") {
		t.Fatalf("throughput collapse not flagged: %v", vs)
	}
}

func TestWallBudgetFlagIdentityGated(t *testing.T) {
	// Wall seconds are informational...
	cur := strings.Replace(perSecDoc, `"engine_wall_seconds": 11.5`, `"engine_wall_seconds": 28.9`, 1)
	if vs := comparePerSec(t, cur); len(vs) != 0 {
		t.Fatalf("wall-clock change flagged: %v", vs)
	}
	// ...but the boolean budget flag flipping is a hard failure.
	cur = strings.Replace(perSecDoc, `"completed_under_30s_wall": true`, `"completed_under_30s_wall": false`, 1)
	vs := comparePerSec(t, cur)
	if len(vs) != 1 || !strings.Contains(vs[0].Path, "completed_under_30s_wall") {
		t.Fatalf("wall-budget flag flip not flagged: %v", vs)
	}
}

func TestRetainedAllocsPerRequestGated(t *testing.T) {
	cur := strings.Replace(perSecDoc,
		`"engine_retained_allocs_per_request": 0.001`, `"engine_retained_allocs_per_request": 1.2`, 1)
	vs := comparePerSec(t, cur)
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "allocation") {
		t.Fatalf("retained-alloc regression not flagged: %v", vs)
	}
}

// TestSummaryListsGatedLeavesOnly: the job-summary table carries one row per
// gated leaf (pass or fail), hides informational leaves, and flags failures
// with the same reason the gate reports.
func TestSummaryListsGatedLeavesOnly(t *testing.T) {
	cur := strings.Replace(baseline, `"virtual_us_per_restore": 812.4`, `"virtual_us_per_restore": 1100`, 1)
	cur = strings.Replace(cur, `"wall_ns_per_restore": 41000`, `"wall_ns_per_restore": 999999`, 1)
	s, err := Summary("restore", []byte(baseline), []byte(cur), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(s, "### restore\n") {
		t.Fatalf("summary missing title heading:\n%s", s)
	}
	if strings.Contains(s, "wall_ns_per_restore") {
		t.Fatalf("informational wall-clock leaf listed:\n%s", s)
	}
	if !strings.Contains(s, "virtual_us_per_restore") || !strings.Contains(s, ":x:") ||
		!strings.Contains(s, "drift") {
		t.Fatalf("drifted leaf not flagged:\n%s", s)
	}
	// A clean pair renders all-green with the same row set.
	s, err = Summary("restore", []byte(baseline), []byte(baseline), 0)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(s, ":x:") || !strings.Contains(s, ":white_check_mark:") {
		t.Fatalf("identical runs rendered a failure:\n%s", s)
	}
	if !strings.Contains(s, "0 gated metric(s) failed") {
		t.Fatalf("summary footer missing:\n%s", s)
	}
}

// TestSummaryMatchesGate cross-checks gateRule against check: every leaf
// gateRule calls informational must pass check under arbitrary numeric
// change, and every violation Compare reports must sit on a leaf gateRule
// gates. This keeps the summary table and the exit code telling one story.
func TestSummaryMatchesGate(t *testing.T) {
	bleaves, _, paths, err := flattenDocs([]byte(baseline), []byte(baseline))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		bv := bleaves[p]
		bn, isNum := bv.(float64)
		if !isNum {
			continue
		}
		rule := gateRule(p, bv, DefaultMaxDrift)
		if _, bad := check(p, bv, bn*10+17, DefaultMaxDrift); bad && rule == "" {
			t.Errorf("%s: check gates it but gateRule calls it informational", p)
		}
		if _, bad := check(p, bv, bn, DefaultMaxDrift); bad {
			t.Errorf("%s: unchanged value fails the gate", p)
		}
	}
	// And a missing gated leaf shows up as a failed row.
	s, err := Summary("t", []byte(baseline), []byte(`[]`), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, ":x: missing") {
		t.Fatalf("missing leaves not flagged:\n%s", s)
	}
}
