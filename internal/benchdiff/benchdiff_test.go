package benchdiff

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baseline mirrors the shapes the committed files take — a flat entry, a
// nested array, nested objects — and carries a float with more digits than
// a float64 distinguishes, as BENCH_fleet_xl.json does.
const baseline = `[
  {
    "benchmark": "restore-steady-state",
    "tracker": "soft-dirty",
    "virtual_us_per_restore": 862.28,
    "restored_pages": 128
  },
  {
    "benchmark": "coldstart",
    "cold_start_total_virtual_us": 12619816.536999999,
    "fleet": [
      {"containers": 1, "frames_in_use": 3191},
      {"containers": 16, "frames_in_use": 3192}
    ]
  },
  {
    "benchmark": "faults-recovery",
    "keepalive": {"reaped": 13, "end_frames": 219502},
    "lost_requests": 0,
    "slo_met": true
  }
]
`

func TestIdenticalBytesPass(t *testing.T) {
	vs, err := Compare([]byte(baseline), []byte(baseline))
	if err != nil || len(vs) != 0 {
		t.Fatalf("identical documents: violations %v, err %v", vs, err)
	}
}

// TestEveryWayToDifferFails is the gate's teeth: one rule, so each way a
// current document can differ from its baseline is exactly one violation
// that names the path.
func TestEveryWayToDifferFails(t *testing.T) {
	cases := []struct {
		name, old, new string
		path, reason   string
	}{
		{"last digit of a float", `862.28`, `862.29`, "[0].virtual_us_per_restore", "moved +0.01"},
		{"last digit below float64 resolution", `12619816.536999999`, `12619816.536999998`,
			"[1].cold_start_total_virtual_us", "moved"},
		{"plain counter", `"reaped": 13`, `"reaped": 14`, "[2].keepalive.reaped", "moved +1 (+7.7%)"},
		{"invariant off zero", `"lost_requests": 0`, `"lost_requests": 1`, "[2].lost_requests", "moved +1"},
		{"nested array element", `{"containers": 16, "frames_in_use": 3192}`, `{"containers": 16, "frames_in_use": 51056}`,
			"[1].fleet[1].frames_in_use", "moved +47864"},
		{"string relabelled", `"tracker": "soft-dirty"`, `"tracker": "uffd"`, "[0].tracker", "changed"},
		{"boolean flipped", `"slo_met": true`, `"slo_met": false`, "[2].slo_met", "changed"},
		{"number became a string", `"restored_pages": 128`, `"restored_pages": "128"`, "[0].restored_pages", "changed"},
		{"leaf only in the baseline", ",\n    \"restored_pages\": 128", ``, "[0].restored_pages", "vanished"},
		{"leaf only in the current file", `"slo_met": true`, "\"slo_met\": true,\n    \"extra\": 1", "[2].extra", "appeared"},
		{"same leaves, other bytes", `{"reaped": 13, "end_frames": 219502}`, `{"end_frames": 219502, "reaped": 13}`,
			"(document)", "different bytes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if !strings.Contains(baseline, c.old) {
				t.Fatalf("fixture has no %q to replace", c.old)
			}
			cur := strings.Replace(baseline, c.old, c.new, 1)
			vs, err := Compare([]byte(baseline), []byte(cur))
			if err != nil {
				t.Fatal(err)
			}
			if len(vs) != 1 || vs[0].Path != c.path || !strings.Contains(vs[0].Reason, c.reason) {
				t.Fatalf("got %v, want one violation at %s saying %q", vs, c.path, c.reason)
			}
		})
	}
}

// TestUnpairedFilesFail: in directory mode a baseline that nothing
// regenerated and a fresh file that nothing gates are both violations, next
// to a matched pair judged leaf by leaf and one that passes.
func TestUnpairedFilesFail(t *testing.T) {
	bdir, cdir := t.TempDir(), t.TempDir()
	for path, doc := range map[string]string{
		filepath.Join(bdir, "BENCH_moved.json"):       baseline,
		filepath.Join(cdir, "BENCH_moved.json"):       strings.Replace(baseline, `862.28`, `862.29`, 1),
		filepath.Join(bdir, "BENCH_same.json"):        baseline,
		filepath.Join(cdir, "BENCH_same.json"):        baseline,
		filepath.Join(bdir, "BENCH_stopped.json"):     baseline,
		filepath.Join(cdir, "BENCH_unbaselined.json"): baseline,
		filepath.Join(bdir, "SHA256SUMS"):             "not a benchmark file",
	} {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reports, err := CompareDirs(bdir, cdir)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ name, path, reason string }{
		{"BENCH_moved.json", "[0].virtual_us_per_restore", "moved"},
		{"BENCH_same.json", "", ""},
		{"BENCH_stopped.json", "BENCH_stopped.json", "no current file"},
		{"BENCH_unbaselined.json", "BENCH_unbaselined.json", "no committed baseline"},
	}
	if len(reports) != len(want) {
		t.Fatalf("CompareDirs reported %d files, want %d: %+v", len(reports), len(want), reports)
	}
	for i, w := range want {
		r := reports[i]
		if r.Name != w.name || !strings.HasPrefix(r.Summary, "### "+w.name+"\n") {
			t.Errorf("report %d is %s headed %q, want %s", i, r.Name, r.Summary, w.name)
		}
		if w.path == "" {
			if len(r.Violations) != 0 || !strings.Contains(r.Summary, ":white_check_mark:") || strings.Contains(r.Summary, ":x:") {
				t.Errorf("%s: identical pair reported %v:\n%s", w.name, r.Violations, r.Summary)
			}
			continue
		}
		if len(r.Violations) != 1 || r.Violations[0].Path != w.path || !strings.Contains(r.Violations[0].Reason, w.reason) {
			t.Errorf("%s: got %v, want one violation at %s saying %q", w.name, r.Violations, w.path, w.reason)
		}
		if !strings.Contains(r.Summary, ":x:") || !strings.Contains(r.Summary, "`"+w.path+"`") {
			t.Errorf("%s: summary does not name the failing path:\n%s", w.name, r.Summary)
		}
	}
	if _, err := CompareDirs(t.TempDir(), t.TempDir()); err == nil {
		t.Error("two directories without a single BENCH_*.json compared clean")
	}
}

func TestMalformedJSONRejected(t *testing.T) {
	if _, err := Compare([]byte(`{`), []byte(baseline)); err == nil {
		t.Fatal("malformed baseline accepted")
	}
	if _, err := Compare([]byte(baseline), []byte(`nope`)); err == nil {
		t.Fatal("malformed current accepted")
	}
}
