// Package benchdiff compares freshly generated benchmark JSON summaries
// (BENCH_restore.json, BENCH_coldstart.json) against committed baselines
// (bench/baselines/) and reports regressions. It is the library behind
// cmd/benchdiff, the CI benchmark gate: Compare and Summary judge one pair
// of documents, CompareFiles one pair of files, and CompareDirs every
// BENCH_*.json of two directories, where a file without a same-named
// partner on the other side is itself a violation.
//
// Both documents are flattened into path -> leaf maps (array elements by
// index, e.g. "[0].fleet[2].frames_in_use") and every baseline leaf is
// checked against the current run under per-field policies keyed by the
// leaf's name:
//
//   - allocation counters (name contains "allocs"): any increase beyond a
//     small absolute slack fails — the zero-allocation hot paths must stay
//     zero-allocation;
//   - deterministic virtual costs (name ends in "_us" or contains
//     "virtual") and physical frame counts (names ending in
//     "frames_in_use", plus the fleet benchmark's "end_frames"): relative
//     drift beyond the threshold fails in either direction — improvements
//     require an intentional re-baseline, exactly like regressions;
//   - invariant counters ("leaked_frames", "lost_requests" from the
//     fault-injection suite, "chains_lost" from the scenario suite): must
//     match the baseline exactly — the baselines pin them at zero, so any
//     change is a recovery (or chain-conservation) bug;
//   - throughput floors (name contains "per_sec"): wall-clock dependent,
//     so they are gated one-sided with a generous margin — only a collapse
//     below PerSecFloorRatio of the baseline fails (an engine regression
//     of several-fold, not machine jitter); improvements always pass;
//   - identity strings (benchmark/tracker/mode names) and booleans (e.g.
//     the fleet-xl wall-budget and million-request flags): must match
//     exactly;
//   - wall-clock and byte counters: machine-dependent, informational only.
//
// A baseline leaf missing from the current run fails; metrics added by new
// code are ignored until they are baselined.
package benchdiff

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// AllocSlack is the absolute tolerance on allocation counters: runtime
// background activity can add fractional allocs/op to a zero-allocation
// path's measurement without indicating a regression.
const AllocSlack = 0.5

// DefaultMaxDrift is the default relative tolerance for deterministic
// virtual-cost and frame-count metrics.
const DefaultMaxDrift = 0.25

// PerSecFloorRatio is the one-sided floor on throughput metrics (leaf name
// contains "per_sec"): the current value must stay above this fraction of
// the baseline. Throughput is wall-clock dependent, so the margin is
// deliberately wide — a violation means the engine got several times
// slower, not that the CI machine had a noisy neighbor. Improvements
// always pass (re-baseline to ratchet the floor up).
const PerSecFloorRatio = 0.25

// Violation is one failed comparison.
type Violation struct {
	Path     string
	Baseline string
	Current  string
	Reason   string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: baseline %s, current %s: %s", v.Path, v.Baseline, v.Current, v.Reason)
}

// Compare checks a current benchmark JSON document against its baseline and
// returns the violations, ordered by path. maxDrift <= 0 selects
// DefaultMaxDrift.
func Compare(baseline, current []byte, maxDrift float64) ([]Violation, error) {
	if maxDrift <= 0 {
		maxDrift = DefaultMaxDrift
	}
	bleaves, cleaves, paths, err := flattenDocs(baseline, current)
	if err != nil {
		return nil, err
	}
	var out []Violation
	for _, p := range paths {
		bv := bleaves[p]
		cv, ok := cleaves[p]
		if !ok {
			out = append(out, Violation{Path: p, Baseline: leafString(bv), Current: "-",
				Reason: "metric missing from current run"})
			continue
		}
		if v, bad := check(p, bv, cv, maxDrift); bad {
			out = append(out, v)
		}
	}
	return out, nil
}

// FileReport is the outcome of comparing one baseline/current file pair.
type FileReport struct {
	Name       string // the summary heading; the file's name in directory mode
	Violations []Violation
	Summary    string // the pair's Summary table
}

// CompareFiles reads one baseline/current pair of files and returns its
// violations and its Summary table under the given heading.
func CompareFiles(name, baselinePath, currentPath string, maxDrift float64) (FileReport, error) {
	baseline, err := os.ReadFile(baselinePath)
	if err != nil {
		return FileReport{}, err
	}
	current, err := os.ReadFile(currentPath)
	if err != nil {
		return FileReport{}, err
	}
	r := FileReport{Name: name}
	if r.Violations, err = Compare(baseline, current, maxDrift); err != nil {
		return FileReport{}, fmt.Errorf("%s: %w", name, err)
	}
	if r.Summary, err = Summary(name, baseline, current, maxDrift); err != nil {
		return FileReport{}, fmt.Errorf("%s: %w", name, err)
	}
	return r, nil
}

// CompareDirs compares the BENCH_*.json files of two directories pairwise by
// file name and returns one report per name, sorted. Every file on either
// side must have a partner on the other: a baseline nothing regenerated is a
// suite that silently stopped running, and a fresh file with no baseline is
// a suite nobody gates, so both are violations rather than skips.
func CompareDirs(baselineDir, currentDir string, maxDrift float64) ([]FileReport, error) {
	inBaseline, err := benchFiles(baselineDir)
	if err != nil {
		return nil, err
	}
	inCurrent, err := benchFiles(currentDir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(inBaseline))
	for name := range inBaseline {
		names = append(names, name)
	}
	for name := range inCurrent {
		if !inBaseline[name] {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("benchdiff: no BENCH_*.json in %s or %s", baselineDir, currentDir)
	}
	sort.Strings(names)

	reports := make([]FileReport, 0, len(names))
	for _, name := range names {
		if inBaseline[name] && inCurrent[name] {
			r, err := CompareFiles(name, filepath.Join(baselineDir, name), filepath.Join(currentDir, name), maxDrift)
			if err != nil {
				return nil, err
			}
			reports = append(reports, r)
			continue
		}
		v := Violation{Path: name, Baseline: "present", Current: "-", Reason: "no current file for this baseline"}
		if inCurrent[name] {
			v = Violation{Path: name, Baseline: "-", Current: "present", Reason: "no committed baseline for this file"}
		}
		reports = append(reports, FileReport{Name: name, Violations: []Violation{v},
			Summary: fmt.Sprintf("### %s\n\n:x: %s\n\n", name, v.Reason)})
	}
	return reports, nil
}

// benchFiles returns the names of the BENCH_*.json files directly in dir.
func benchFiles(dir string) (map[string]bool, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool, len(paths))
	for _, p := range paths {
		names[filepath.Base(p)] = true
	}
	return names, nil
}

// flattenDocs parses both documents and returns their leaf maps plus the
// baseline's paths in sorted order (the iteration order of every report).
func flattenDocs(baseline, current []byte) (bleaves, cleaves map[string]any, paths []string, err error) {
	var bdoc, cdoc any
	if err := json.Unmarshal(baseline, &bdoc); err != nil {
		return nil, nil, nil, fmt.Errorf("benchdiff: baseline: %w", err)
	}
	if err := json.Unmarshal(current, &cdoc); err != nil {
		return nil, nil, nil, fmt.Errorf("benchdiff: current: %w", err)
	}
	bleaves = map[string]any{}
	cleaves = map[string]any{}
	flatten("", bdoc, bleaves)
	flatten("", cdoc, cleaves)
	paths = make([]string, 0, len(bleaves))
	for p := range bleaves {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return bleaves, cleaves, paths, nil
}

// flatten records every leaf of a decoded JSON document under its path.
func flatten(path string, v any, out map[string]any) {
	switch x := v.(type) {
	case map[string]any:
		for k, sub := range x {
			p := k
			if path != "" {
				p = path + "." + k
			}
			flatten(p, sub, out)
		}
	case []any:
		for i, sub := range x {
			flatten(fmt.Sprintf("%s[%d]", path, i), sub, out)
		}
	default:
		out[path] = v
	}
}

// leafName extracts the final field name of a flattened path.
func leafName(path string) string {
	name := path
	if i := strings.LastIndex(name, "."); i >= 0 {
		name = name[i+1:]
	}
	if i := strings.Index(name, "["); i >= 0 {
		name = name[:i]
	}
	return name
}

// check applies the per-field policy to one (baseline, current) leaf pair.
func check(path string, bv, cv any, maxDrift float64) (Violation, bool) {
	bn, bIsNum := bv.(float64)
	cn, cIsNum := cv.(float64)
	if !bIsNum || !cIsNum {
		if leafString(bv) != leafString(cv) {
			return Violation{Path: path, Baseline: leafString(bv), Current: leafString(cv),
				Reason: "identity changed; entries no longer comparable"}, true
		}
		return Violation{}, false
	}
	name := strings.ToLower(leafName(path))
	switch {
	case name == "leaked_frames" || name == "lost_requests" || name == "chains_lost":
		// Hard invariants of the fault-injection and scenario suites:
		// recovery must never drop a request, leak a frame, or abandon a
		// chain mid-stage, so any change — in either direction — is a
		// violation, not drift.
		if cn != bn {
			return Violation{Path: path, Baseline: fmtNum(bn), Current: fmtNum(cn),
				Reason: "invariant counter changed (must match baseline exactly)"}, true
		}
	case strings.Contains(name, "allocs"):
		if cn > bn+AllocSlack {
			return Violation{Path: path, Baseline: fmtNum(bn), Current: fmtNum(cn),
				Reason: "allocation-count regression"}, true
		}
	case strings.Contains(name, "per_sec"):
		if cn < bn*PerSecFloorRatio {
			return Violation{Path: path, Baseline: fmtNum(bn), Current: fmtNum(cn),
				Reason: fmt.Sprintf("throughput collapsed below %.0f%% of baseline", PerSecFloorRatio*100)}, true
		}
	case strings.HasSuffix(name, "_us") || strings.Contains(name, "virtual") ||
		strings.HasSuffix(name, "frames_in_use") || name == "end_frames":
		var drift float64
		switch {
		case bn != 0:
			drift = (cn - bn) / bn
		case cn != 0:
			drift = 1 // zero baseline, nonzero current: full drift
		}
		if drift < 0 {
			drift = -drift
		}
		if drift > maxDrift {
			return Violation{Path: path, Baseline: fmtNum(bn), Current: fmtNum(cn),
				Reason: fmt.Sprintf("drift %.1f%% exceeds %.0f%% (re-baseline if intentional)",
					drift*100, maxDrift*100)}, true
		}
	}
	// Everything else (wall_ns, alloc bytes, derived ratios, page counts
	// already pinned by tests) is informational.
	return Violation{}, false
}

// gateRule names the policy check applies to a leaf; "" means the leaf is
// informational (wall-clock, byte counters) and does not gate the build.
// It must stay in lockstep with check's switch — TestSummaryMatchesGate
// cross-checks the two.
func gateRule(path string, bv any, maxDrift float64) string {
	if _, isNum := bv.(float64); !isNum {
		return "identity"
	}
	name := strings.ToLower(leafName(path))
	switch {
	case name == "leaked_frames" || name == "lost_requests" || name == "chains_lost":
		return "invariant (exact)"
	case strings.Contains(name, "allocs"):
		return fmt.Sprintf("allocs (+%.1f slack)", AllocSlack)
	case strings.Contains(name, "per_sec"):
		return fmt.Sprintf("floor (>=%.0f%% of baseline)", PerSecFloorRatio*100)
	case strings.HasSuffix(name, "_us") || strings.Contains(name, "virtual") ||
		strings.HasSuffix(name, "frames_in_use") || name == "end_frames":
		return fmt.Sprintf("drift <=%.0f%%", maxDrift*100)
	}
	return ""
}

// Summary renders the gated leaves of a baseline/current pair as a GitHub
// job-summary markdown fragment: a level-3 heading followed by one table row
// per gated metric — pass or fail — so a green run still publishes its
// headline numbers. Informational leaves are counted but not listed.
// maxDrift <= 0 selects DefaultMaxDrift.
func Summary(title string, baseline, current []byte, maxDrift float64) (string, error) {
	if maxDrift <= 0 {
		maxDrift = DefaultMaxDrift
	}
	bleaves, cleaves, paths, err := flattenDocs(baseline, current)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", title)
	b.WriteString("| metric | baseline | current | Δ | rule | |\n")
	b.WriteString("|---|---:|---:|---:|---|---|\n")
	informational, failed := 0, 0
	for _, p := range paths {
		bv := bleaves[p]
		rule := gateRule(p, bv, maxDrift)
		if rule == "" {
			informational++
			continue
		}
		cv, ok := cleaves[p]
		cur, delta, status := "-", "-", ":white_check_mark:"
		if !ok {
			status = ":x: missing"
			failed++
		} else {
			cur = leafString(cv)
			delta = leafDelta(bv, cv)
			if v, bad := check(p, bv, cv, maxDrift); bad {
				status = ":x: " + v.Reason
				failed++
			}
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n",
			p, leafString(bv), cur, delta, rule, status)
	}
	fmt.Fprintf(&b, "\n%d gated metric(s) failed; %d informational leaves not shown.\n\n",
		failed, informational)
	return b.String(), nil
}

// leafDelta formats the current-vs-baseline change of one leaf pair.
func leafDelta(bv, cv any) string {
	bn, bIsNum := bv.(float64)
	cn, cIsNum := cv.(float64)
	if !bIsNum || !cIsNum {
		if leafString(bv) == leafString(cv) {
			return "-"
		}
		return "changed"
	}
	d := cn - bn
	signed := fmtNum(d)
	if d >= 0 {
		signed = "+" + signed
	}
	switch {
	case d == 0:
		return "0"
	case bn != 0:
		return fmt.Sprintf("%s (%+.1f%%)", signed, d/bn*100)
	default:
		return signed
	}
}

func fmtNum(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

func leafString(v any) string {
	if v == nil {
		return "null"
	}
	if f, ok := v.(float64); ok {
		return fmtNum(f)
	}
	return fmt.Sprintf("%v", v)
}
