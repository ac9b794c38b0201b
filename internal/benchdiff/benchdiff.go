// Package benchdiff compares freshly generated benchmark JSON summaries
// (BENCH_*.json) against committed baselines (bench/baselines/). It is the
// library behind cmd/benchdiff, the CI benchmark gate, and behind tier-1's
// TestQuickBaselinesReproduce: Compare judges one pair of documents,
// CompareFiles one pair of files, and CompareDirs every BENCH_*.json of two
// directories, where a file without a same-named partner on the other side
// is itself a violation.
//
// There is one rule: every baseline is the output of a seeded simulation, so
// a pair passes iff it is byte-identical. Nothing is tolerated and nothing
// is ignored — an improvement needs a deliberate re-baseline exactly like a
// regression. On a mismatch both documents are flattened into path -> leaf
// maps (array elements by index, e.g. "[0].fleet[2].frames_in_use") and the
// report names every leaf that moved, vanished or appeared, and by how much.
package benchdiff

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Violation is one difference between a baseline and its current
// counterpart; "-" stands for the side a leaf or file is absent from.
type Violation struct {
	Path     string
	Baseline string
	Current  string
	Reason   string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: baseline %s, current %s: %s", v.Path, v.Baseline, v.Current, v.Reason)
}

// Compare checks a current benchmark JSON document against its baseline.
// It returns no violations iff the two are byte-identical, and otherwise one
// per differing leaf, ordered by path.
func Compare(baseline, current []byte) ([]Violation, error) {
	if bytes.Equal(baseline, current) {
		return nil, nil
	}
	bleaves, err := flattenDoc(baseline)
	if err != nil {
		return nil, fmt.Errorf("benchdiff: baseline: %w", err)
	}
	cleaves, err := flattenDoc(current)
	if err != nil {
		return nil, fmt.Errorf("benchdiff: current: %w", err)
	}
	paths := make([]string, 0, len(bleaves))
	for p := range bleaves {
		paths = append(paths, p)
	}
	for p := range cleaves {
		if _, ok := bleaves[p]; !ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)

	var out []Violation
	for _, p := range paths {
		bv, inBaseline := bleaves[p]
		cv, inCurrent := cleaves[p]
		switch {
		case !inCurrent:
			out = append(out, Violation{Path: p, Baseline: bv, Current: "-", Reason: "leaf vanished from the current run"})
		case !inBaseline:
			out = append(out, Violation{Path: p, Baseline: "-", Current: cv, Reason: "leaf appeared with no baseline"})
		case bv != cv:
			out = append(out, Violation{Path: p, Baseline: bv, Current: cv, Reason: leafDelta(bv, cv)})
		}
	}
	if len(out) == 0 {
		out = []Violation{{Path: "(document)", Baseline: "-", Current: "-",
			Reason: "same leaves, different bytes (formatting or key order)"}}
	}
	return out, nil
}

// FileReport is the outcome of comparing one baseline/current file pair.
type FileReport struct {
	Name       string // the summary heading; the file's name in directory mode
	Violations []Violation
	Summary    string // markdown: the verdict, and a row per violation
}

// CompareFiles reads one baseline/current pair of files and returns its
// violations and their summary under the given heading.
func CompareFiles(name, baselinePath, currentPath string) (FileReport, error) {
	baseline, err := os.ReadFile(baselinePath)
	if err != nil {
		return FileReport{}, err
	}
	current, err := os.ReadFile(currentPath)
	if err != nil {
		return FileReport{}, err
	}
	vs, err := Compare(baseline, current)
	if err != nil {
		return FileReport{}, fmt.Errorf("%s: %w", name, err)
	}
	return FileReport{Name: name, Violations: vs, Summary: summary(name, vs)}, nil
}

// CompareDirs compares the BENCH_*.json files of two directories pairwise by
// file name and returns one report per name, sorted. Every file on either
// side must have a partner on the other: a baseline nothing regenerated is a
// suite that silently stopped running, and a fresh file with no baseline is
// a suite nobody gates, so both are violations rather than skips.
func CompareDirs(baselineDir, currentDir string) ([]FileReport, error) {
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
			r, err := CompareFiles(name, filepath.Join(baselineDir, name), filepath.Join(currentDir, name))
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
		vs := []Violation{v}
		reports = append(reports, FileReport{Name: name, Violations: vs, Summary: summary(name, vs)})
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

// flattenDoc parses a document and returns every leaf, as its JSON text,
// under its path. Numbers keep the digits they were written with, so two
// that differ only in the last one differ here too.
func flattenDoc(doc []byte) (map[string]string, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	leaves := map[string]string{}
	flatten("", v, leaves)
	return leaves, nil
}

func flatten(path string, v any, out map[string]string) {
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
	case json.Number:
		out[path] = x.String()
	default: // string, bool, nil: none of them can fail to marshal
		text, _ := json.Marshal(x)
		out[path] = string(text)
	}
}

// summary renders one pair's verdict as a GitHub job-summary markdown
// fragment: a level-3 heading, then either the all-clear or one table row
// per violation.
func summary(title string, vs []Violation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", title)
	if len(vs) == 0 {
		b.WriteString(":white_check_mark: byte-identical to its baseline\n\n")
		return b.String()
	}
	fmt.Fprintf(&b, ":x: %d difference(s) from the baseline\n\n", len(vs))
	b.WriteString("| path | baseline | current | |\n")
	b.WriteString("|---|---:|---:|---|\n")
	for _, v := range vs {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", v.Path, v.Baseline, v.Current, v.Reason)
	}
	b.WriteString("\n")
	return b.String()
}

// leafDelta says how far a leaf moved: for two numbers the signed
// difference and its share of the baseline.
func leafDelta(bv, cv string) string {
	bn, berr := strconv.ParseFloat(bv, 64)
	cn, cerr := strconv.ParseFloat(cv, 64)
	if berr != nil || cerr != nil {
		return "changed"
	}
	d := cn - bn
	if bn == 0 {
		return fmt.Sprintf("moved %+.6g", d)
	}
	return fmt.Sprintf("moved %+.6g (%+.2g%%)", d, d/bn*100)
}
