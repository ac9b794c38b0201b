// Command benchdiff is the CI benchmark gate: it compares freshly generated
// benchmark JSON summaries against their committed baselines and exits
// non-zero unless every pair is byte-identical. The baselines are outputs of
// a seeded simulation, so there is nothing to tolerate; on a mismatch it
// names each leaf that moved, vanished or appeared, and by how much.
//
// Usage:
//
//	benchdiff -baseline bench/baselines -current DIR -summary "$GITHUB_STEP_SUMMARY"
//	benchdiff -baseline bench/baselines/BENCH_restore.json -current BENCH_restore.json
//	benchdiff -baseline ... -current ... -summary FILE -title cluster
//
// -baseline and -current are either two files or two directories. Given
// directories (what CI does), every BENCH_*.json on either side must have a
// same-named partner on the other — a missing one is a violation — and each
// pair is compared like a pair of files.
//
// With -summary, each pair's verdict — and on a mismatch a markdown table of
// the differing leaves (baseline, current, delta) — is appended to the given
// file; CI points it at $GITHUB_STEP_SUMMARY so a failing gate explains
// itself on the job page.
//
// To re-baseline after an intentional change, follow bench/README.md:
// regenerate with `ghbench -e bench-all -out bench/baselines` and regenerate
// bench/baselines/SHA256SUMS in the same commit.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"groundhog/internal/benchdiff"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed baseline: a BENCH_*.json file, or a directory of them (required)")
		currentPath  = flag.String("current", "", "freshly generated counterpart: a file, or a directory (required)")
		summaryPath  = flag.String("summary", "",
			"append each pair's verdict and differing leaves, as markdown, to this file (e.g. $GITHUB_STEP_SUMMARY); written before a failing exit")
		title = flag.String("title", "",
			"heading for a file pair's -summary entry (defaults to the current file's name; directory mode heads each entry with its file's name)")
	)
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are required")
		flag.Usage()
		os.Exit(2)
	}
	reports, err := compare(*baselinePath, *currentPath, *title)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	// The summary is appended before the verdict decides the exit code, so a
	// failing gate still publishes its tables to the CI job summary.
	if *summaryPath != "" {
		f, err := os.OpenFile(*summaryPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err == nil {
			for _, r := range reports {
				if _, err = f.WriteString(r.Summary); err != nil {
					break
				}
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: summary: %v\n", err)
			os.Exit(2)
		}
	}
	failed := 0
	for _, r := range reports {
		if len(r.Violations) == 0 {
			continue
		}
		failed++
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %d violation(s)\n", r.Name, len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %s matches %s (%d file(s))\n", *currentPath, *baselinePath, len(reports))
}

// compare runs directory mode when both paths are directories and file mode
// when both are files.
func compare(baselinePath, currentPath, title string) ([]benchdiff.FileReport, error) {
	bfi, err := os.Stat(baselinePath)
	if err != nil {
		return nil, err
	}
	cfi, err := os.Stat(currentPath)
	if err != nil {
		return nil, err
	}
	switch {
	case bfi.IsDir() != cfi.IsDir():
		return nil, fmt.Errorf("-baseline and -current must be two files or two directories")
	case bfi.IsDir():
		return benchdiff.CompareDirs(baselinePath, currentPath)
	}
	if title == "" {
		title = filepath.Base(currentPath)
	}
	r, err := benchdiff.CompareFiles(title, baselinePath, currentPath)
	return []benchdiff.FileReport{r}, err
}
