// Docs checks, run by the CI docs job: every relative markdown link must
// resolve to a file in the repository, every Go name the reference docs put
// in inline code must be declared, every ```go fence must hold gofmt-clean
// Go (a whole file, or a fragment of declarations/statements), and every
// example program must pin its output.
package groundhog_test

import (
	"encoding/json"
	"go/ast"
	"go/doc"
	"go/format"
	"go/parser"
	"go/token"
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

// parseGoFiles parses every Go file in the repository, the nested bench/e2e
// module's included, that is a test file when tests is set and a non-test
// file otherwise, and hands each to fn with its path. Dot-directories and
// testdata hold no code of the repository's own.
func parseGoFiles(t *testing.T, tests bool, fn func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") != tests:
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
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

// docName matches an inline-code span that names a Go declaration:
// `pkg.Ident`, then any `.Method` or `.Field` after it.
var docName = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)$`)

// proseName finds the same shape in running text (doc.go's package comment),
// where only an exported first identifier marks a Go name.
var proseName = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*(?:\.[A-Za-z_]\w*)*)`)

// testName matches an inline-code span that is a bare test or fuzz target.
var testName = regexp.MustCompile(`^(?:Test|Fuzz)\w*$`)

// TestDocsNamesResolve holds the reference docs to the code: in every
// inline-code span of ARCHITECTURE.md and bench/README.md, and in the prose
// of doc.go's package comment, a name that reads pkg.Ident[.Ident…] where
// internal/pkg exists must have Ident declared at the top level of that
// package (a test or fuzz target counts), and every later identifier must be
// a method or field declared in it; a bare `TestX` or `FuzzX` span must be a
// test or fuzz target declared somewhere in the repository. A renamed test
// or a method that never existed fails here instead of misleading a reader.
// The benchmark's metric names (BENCHMARK.json) share the dotted shape and
// are not Go names.
func TestDocsNamesResolve(t *testing.T) {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	metric := map[string]bool{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		metric[m.Name] = true
	}
	pkgs := map[string]declaredNames{}
	resolve := func(f, name, pkg, idents string) {
		dir := filepath.Join("internal", pkg)
		if fi, err := os.Stat(dir); metric[name] || err != nil || !fi.IsDir() {
			return
		}
		decl, ok := pkgs[dir]
		if !ok {
			decl = parseDeclaredNames(t, dir)
			pkgs[dir] = decl
		}
		ids := strings.Split(idents, ".")
		if !decl.top[ids[0]] {
			t.Errorf("%s: `%s`: %s declares no %s", f, name, dir, ids[0])
		}
		for _, id := range ids[1:] {
			if !decl.members[id] {
				t.Errorf("%s: `%s`: %s declares no method or field %s", f, name, dir, id)
			}
		}
	}
	tests := declaredTests(t)
	for _, f := range []string{"ARCHITECTURE.md", "bench/README.md"} {
		blob, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prose := anyFence.ReplaceAllString(string(blob), "")
		for _, m := range codeSpan.FindAllStringSubmatch(prose, -1) {
			if name := docName.FindStringSubmatch(m[1]); name != nil {
				resolve(f, m[1], name[1], name[2])
			}
			if testName.MatchString(m[1]) && !tests[m[1]] {
				t.Errorf("%s: `%s`: no test or fuzz target of that name", f, m[1])
			}
		}
	}
	doc, err := parser.ParseFile(token.NewFileSet(), "doc.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(doc.Doc.Text(), "\n") {
		if strings.HasPrefix(line, "\t") { // a code block, not prose
			continue
		}
		for _, name := range proseName.FindAllStringSubmatch(line, -1) {
			resolve("doc.go", name[0], name[1], name[2])
		}
	}
}

// declaredTests returns the names of every test and fuzz target declared in
// the repository's test files.
func declaredTests(t *testing.T) map[string]bool {
	t.Helper()
	tests := map[string]bool{}
	parseGoFiles(t, true, func(_ string, f *ast.File) {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testName.MatchString(fn.Name.Name) {
				tests[fn.Name.Name] = true
			}
		}
	})
	return tests
}

// declaredNames is what one package declares: its top-level names, and the
// names of the methods, struct fields and interface methods declared in it.
type declaredNames struct{ top, members map[string]bool }

// parseDeclaredNames reads dir's Go files. Of its test files only the Test
// and Fuzz functions count: the rest is scaffolding docs do not name.
func parseDeclaredNames(t *testing.T, dir string) declaredNames {
	t.Helper()
	d := declaredNames{top: map[string]bool{}, members: map[string]bool{}}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		test := strings.HasSuffix(path, "_test.go")
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				switch {
				case test && !strings.HasPrefix(name, "Test") && !strings.HasPrefix(name, "Fuzz"):
				case decl.Recv != nil:
					d.members[name] = true
				default:
					d.top[name] = true
				}
			case *ast.GenDecl:
				if test {
					continue
				}
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						d.top[spec.Name.Name] = true
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							addFieldNames(d.members, typ.Fields)
						case *ast.InterfaceType:
							addFieldNames(d.members, typ.Methods)
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.top[n.Name] = true
						}
					}
				}
			}
		}
	}
	return d
}

// addFieldNames records a field list's names; an embedded field is named
// by its type.
func addFieldNames(names map[string]bool, fields *ast.FieldList) {
	for _, f := range fields.List {
		for _, n := range f.Names {
			names[n.Name] = true
		}
		if len(f.Names) == 0 {
			typ := f.Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			switch typ := typ.(type) {
			case *ast.Ident:
				names[typ.Name] = true
			case *ast.SelectorExpr:
				names[typ.Sel.Name] = true
			}
		}
	}
}

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

// TestExamplesPinTheirOutput: every program under examples/, and
// cmd/ghsnap, has a test file declaring an Example with an "// Output:"
// block, so tier-1 checks what a walkthrough prints and not only that it
// builds. A new example without one fails here.
func TestExamplesPinTheirOutput(t *testing.T) {
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{filepath.Join("cmd", "ghsnap")}
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join("examples", e.Name()))
		}
	}
	for _, dir := range dirs {
		tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		var files []*ast.File
		for _, path := range tests {
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		pinned := false
		for _, ex := range doc.Examples(files...) {
			pinned = pinned || ex.Output != ""
		}
		if !pinned {
			t.Errorf("%s: no Example with an // Output: block in a _test.go file", dir)
		}
	}
}
