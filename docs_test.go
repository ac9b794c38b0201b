// Docs checks, run by the CI docs job: every relative markdown link must
// resolve to a file in the repository, and every ```go fence must hold
// gofmt-clean Go (a whole file, or a fragment of declarations/statements).
package groundhog_test

import (
	"go/format"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// skippedDocs are verbatim source-material excerpts (paper abstracts,
// exemplar snippets quoted from other repositories): their links point into
// the repositories they were excerpted from, not into this one.
var skippedDocs = map[string]bool{
	"PAPER.md":    true,
	"PAPERS.md":   true,
	"SNIPPETS.md": true,
	"ISSUE.md":    true,
}

// docFiles walks the repository for its own markdown files, at any depth
// (filepath.Glob has no "**", so globbing would silently skip nested docs).
// Dot-directories (.git, .claude) are tool state, not docs.
func docFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".md") && !skippedDocs[name] {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found; docs check running from the wrong directory?")
	}
	return files
}

var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestDocsRelativeLinksResolve fails on markdown links to repository paths
// that do not exist (external URLs and intra-page anchors are skipped).
func TestDocsRelativeLinksResolve(t *testing.T) {
	for _, f := range docFiles(t) {
		blob, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(blob), -1) {
			target := m[1]
			switch {
			case strings.Contains(target, "://"), strings.HasPrefix(target, "mailto:"),
				strings.HasPrefix(target, "#"):
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			resolved := filepath.Join(filepath.Dir(f), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: link %q does not resolve (%s)", f, m[1], resolved)
			}
		}
	}
}

// benchRef matches committed-benchmark mentions; every one named in the
// reference docs must exist under bench/baselines/, so the docs can never
// describe a suite the gate does not actually pin (the drift this repo has
// shipped before: prose describing baselines that lived somewhere else).
var benchRef = regexp.MustCompile(`BENCH_[a-z_]+\.json`)

// codeSpan captures inline code; spans that name repository paths are
// checked against the tree below.
var codeSpan = regexp.MustCompile("`([^`]+)`")

// pathPrefixes are the repo-root-relative prefixes that make an inline code
// span a path claim rather than an identifier.
var pathPrefixes = []string{"internal/", "cmd/", "bench/", "examples/", ".github/"}

// TestDocsBenchReferencesResolve pins the reference docs against the tree:
// every BENCH_*.json mentioned in ARCHITECTURE.md or bench/README.md must
// have a committed baseline, and every inline-code span naming a repository
// path must resolve. Both files document the benchmark/gate surface, so a
// stale mention means the workflow text no longer matches the repo.
func TestDocsBenchReferencesResolve(t *testing.T) {
	for _, f := range []string{"ARCHITECTURE.md", "bench/README.md"} {
		blob, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		doc := string(blob)
		for _, name := range benchRef.FindAllString(doc, -1) {
			baseline := filepath.Join("bench", "baselines", name)
			if _, err := os.Stat(baseline); err != nil {
				t.Errorf("%s mentions %s but %s does not exist", f, name, baseline)
			}
		}
		// Fences go first: codeSpan would pair a fence's last backtick with
		// the first backtick of the prose after it and read every later
		// span inside out.
		prose := anyFence.ReplaceAllString(doc, "")
		for _, m := range codeSpan.FindAllStringSubmatch(prose, -1) {
			// Only the leading token is a path claim ("cmd/benchdiff
			// -baseline ..." names the command, not a file called that);
			// globs like `cmd/*` are patterns, not paths.
			token := strings.Fields(m[1])[0]
			if strings.ContainsAny(token, "*<>") {
				continue
			}
			isPath := false
			for _, p := range pathPrefixes {
				if strings.HasPrefix(token, p) {
					isPath = true
					break
				}
			}
			if !isPath {
				continue
			}
			if _, err := os.Stat(token); err != nil {
				t.Errorf("%s: inline code path %q does not resolve", f, token)
			}
		}
	}
}

var anyFence = regexp.MustCompile("(?s)```.*?```")

var goFence = regexp.MustCompile("(?s)```go\n(.*?)```")

// TestDocsGoExamplesGofmtClean extracts every ```go fence from the docs and
// checks it formats cleanly — examples in prose must hold to the same gofmt
// bar as the code they describe.
func TestDocsGoExamplesGofmtClean(t *testing.T) {
	for _, f := range docFiles(t) {
		blob, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range goFence.FindAllStringSubmatch(string(blob), -1) {
			src := m[1]
			formatted, err := format.Source([]byte(src))
			if err != nil {
				t.Errorf("%s: go example %d does not parse: %v", f, i+1, err)
				continue
			}
			if string(formatted) != src {
				t.Errorf("%s: go example %d is not gofmt-clean; want:\n%s", f, i+1, formatted)
			}
		}
	}
}
