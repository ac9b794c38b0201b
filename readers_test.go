package groundhog_test

import (
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// keptUnread are the exported names under internal/ that no non-test file
// reads, each with the reason it stays. The map can only shrink: a new
// unread name fails the test until it goes or gets a reason here, and an
// entry that gains a reader is stale and fails too.
var keptUnread = map[string]string{
	"vm.AddressSpace.Mremap":            "the adversary vocabulary a request can use against a restore",
	"server.Handle.ArmFaults":           "the live fault soak decides whether serving keeps an injector",
	"kernel.Regs.PC":                    "compared whole with the rest of Regs by core.Manager.Verify",
	"kernel.Regs.SP":                    "compared whole with the rest of Regs by core.Manager.Verify",
	"kernel.Regs.GP":                    "the registers a request taints (runtimes.Instance.InvokeOn); compared whole by core.Manager.Verify",
	"gateway.InvokeResult.E2EUs":        "wire field the reference client decodes; gateway.TestTransportsReplyWhatInvokeOnceReports compares it with InvokeOnce",
	"gateway.InvokeResult.InvokerUs":    "wire field the reference client decodes; gateway.TestTransportsReplyWhatInvokeOnceReports compares it with InvokeOnce",
	"gateway.InvokeResult.Restored":     "wire field the reference client decodes; gateway.TestTransportsReplyWhatInvokeOnceReports compares it with InvokeOnce",
	"gateway.ProtoError.RetryAfterSecs": "wire field the reference client decodes",
}

// readByStdlib are method names the standard library calls through its
// interfaces (error, fmt.Stringer, http.Handler).
var readByStdlib = map[string]bool{"Error": true, "Unwrap": true, "Is": true, "String": true, "ServeHTTP": true}

// checked is one type-checked non-test package.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// TestExportedNamesHaveReaders lists every exported func, method and struct
// field declared in a non-test file under internal/ that no non-test file of
// the repository reads, the nested bench/e2e module included, and requires
// the list to equal keptUnread. Both modules are type-checked from source,
// so a root change that breaks a bench/e2e caller fails here with the
// compiler's message. Every identifier resolves by type to the object it
// names, and the rules are:
//   - a use is a read of the object it resolves to, so a read of another
//     type's member with the same name does not count;
//   - an assignment target (indexed or not), an inc/dec operand and a
//     composite-literal key are writes, not reads;
//   - a json-tagged field is read by encoding/json, an embedded field through
//     its own members, a method in readByStdlib by the standard library;
//   - a method is also read when an interface method of its name is called
//     and its type (or a pointer to it) implements that interface.
func TestExportedNamesHaveReaders(t *testing.T) {
	got := unread(loadModules(t, ".", "bench/e2e"))
	var diff []string
	for _, name := range got {
		if _, kept := keptUnread[name]; !kept {
			diff = append(diff, "no production reader (delete it, or keep it in keptUnread with a reason): "+name)
		}
	}
	for name := range keptUnread {
		if !slices.Contains(got, name) {
			diff = append(diff, "stale keptUnread entry (it is read, or gone): "+name)
		}
	}
	slices.Sort(diff)
	if len(diff) > 0 {
		t.Error(strings.Join(diff, "\n"))
	}
}

// loadModules type-checks every non-test package of the modules rooted at
// dirs, in dependency order, from source; a package two modules share is
// checked once. The standard library comes in as export data that one
// `go list -export` per module builds or finds in the build cache.
func loadModules(t *testing.T, dirs ...string) []*checked {
	t.Helper()
	fset := token.NewFileSet()
	exports := map[string]string{} // standard import path -> export data file
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	byPath := map[string]*checked{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if c := byPath[path]; c != nil {
			return c.pkg, nil
		}
		return gc.Import(path)
	})}
	var pkgs []*checked
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-export", "-deps", "-f",
			`{{.Standard}} {{.ImportPath}} {{if .Standard}}{{.Export}}{{else}}{{.Dir}}{{range .GoFiles}} {{.}}{{end}}{{end}}`, "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list -export in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			f := strings.Fields(line) // unsafe is the one package with no export data
			switch std, path := f[0] == "true", f[1]; {
			case std && len(f) == 3:
				exports[path] = f[2]
			case !std && byPath[path] == nil:
				var files []*ast.File
				for _, name := range f[3:] {
					file, err := parser.ParseFile(fset, filepath.Join(f[2], name), nil, parser.SkipObjectResolution)
					if err != nil {
						t.Fatal(err)
					}
					files = append(files, file)
				}
				c, err := typeCheck(&conf, fset, path, files)
				if err != nil {
					t.Fatalf("type-checking %s: %v", path, err)
				}
				byPath[path] = c
				pkgs = append(pkgs, c)
			}
		}
	}
	return pkgs
}

// typeCheck checks one package's files and records what each identifier
// uses.
func typeCheck(conf *types.Config, fset *token.FileSet, path string, files []*ast.File) (*checked, error) {
	c := &checked{files: files, info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	var err error
	c.pkg, err = conf.Check(path, fset, files, c.info)
	return c, err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unread names, sorted, the exported funcs, methods and struct fields
// declared in pkgs under groundhog/internal/ that no file of pkgs reads by
// the rules TestExportedNamesHaveReaders states: "pkg.Func" or
// "pkg.Type.Member".
func unread(pkgs []*checked) []string {
	used := map[types.Object]bool{}
	var called []*types.Func // interface methods that are used
	for _, c := range pkgs {
		written := map[*ast.Ident]bool{}
		var target func(e ast.Expr) // marks the identifier an assignment writes
		target = func(e ast.Expr) {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				target(x.X)
			case *ast.SelectorExpr:
				written[x.Sel] = true
			case *ast.Ident:
				written[x] = true
			}
		}
		for _, f := range c.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						target(e)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := c.info.Uses[id].(*types.Var); ok && v.IsField() {
									written[id] = true
								}
							}
						}
					}
				}
				return true
			})
		}
		for id, obj := range c.info.Uses {
			if written[id] {
				continue
			}
			switch obj := obj.(type) {
			case *types.Var:
				used[obj.Origin()] = true
			case *types.Func:
				used[obj.Origin()] = true
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					called = append(called, obj)
				}
			}
		}
	}

	var names []string
	for _, c := range pkgs {
		p := c.pkg
		if !strings.HasPrefix(p.Path(), "groundhog/internal/") {
			continue
		}
		scope := p.Scope()
		for _, n := range scope.Names() {
			switch obj := scope.Lookup(n).(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					names = append(names, p.Name()+"."+n)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				if st, ok := named.Underlying().(*types.Struct); ok {
					for i := range st.NumFields() {
						fld := st.Field(i)
						_, tagged := reflect.StructTag(st.Tag(i)).Lookup("json")
						if fld.Exported() && !fld.Embedded() && !tagged && !used[fld] {
							names = append(names, p.Name()+"."+n+"."+fld.Name())
						}
					}
				}
				for m := range named.Methods() {
					if m.Exported() && !readByStdlib[m.Name()] && !used[m] && !implementsCalled(named, m, called) {
						names = append(names, p.Name()+"."+n+"."+m.Name())
					}
				}
			}
		}
	}
	slices.Sort(names)
	return names
}

// implementsCalled reports whether m, a method of t, is reached through a
// called interface method of its name whose interface *t implements (*t's
// method set holds t's). A generic type is left out: Implements is
// unspecified for an uninstantiated one.
func implementsCalled(t *types.Named, m *types.Func, called []*types.Func) bool {
	if t.TypeParams() != nil {
		return false
	}
	for _, im := range called {
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if im.Name() == m.Name() && types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// TestUnreadRules holds unread to its rules on one-file packages that import
// nothing.
func TestUnreadRules(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      []string
	}{
		{"read", `type T struct{ F int }; func f(t T) int { return t.F }`, nil},
		{"only assigned", `type T struct{ F int }; func f(t *T) { t.F = 1 }`, []string{"p.T.F"}},
		{"only assigned through an index", `type T struct{ F []int }; func f(t *T) { t.F[0] = 1 }`, []string{"p.T.F"}},
		{"only a composite-literal key", `type T struct{ F int }; func f() T { return T{F: 1} }`, []string{"p.T.F"}},
		{"only incremented", `type T struct{ F int }; func f(t *T) { t.F++ }`, []string{"p.T.F"}},
		{"same name read on another type", `type T struct{ F int }; type U struct{ F int }; func f(t *T, u U) int { t.F = 1; return u.F }`, []string{"p.T.F"}},
		{"json-tagged", "type T struct{ F int `json:\"f\"` }", nil},
		{"embedded, read through its members", `type E struct{ G int }; type T struct{ E }; func f(t T) int { return t.G }`, nil},
		{"exported func", `func F() {}`, []string{"p.F"}},
		{"generic method called on an instance", `type L[V any] struct{}; func (*L[V]) Put(V) {}; func f(l *L[int]) { l.Put(1) }`, nil},
		{"method called through an interface it implements", `type I interface{ M() }; type T struct{}; func (*T) M() {}; func f(i I) { i.M() }`, nil},
		{"same-name method on an unrelated type", `type I interface{ M(); N() }; type T struct{}; func (T) M() {}; func (T) N() {}; type U struct{}; func (U) M() {}; func f(i I) { i.M(); i.N() }`, []string{"p.U.M"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "p.go", "package p; "+tc.src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			c, err := typeCheck(&types.Config{}, fset, "groundhog/internal/p", []*ast.File{f})
			if err != nil {
				t.Fatal(err)
			}
			if got := unread([]*checked{c}); !slices.Equal(got, tc.want) {
				t.Errorf("unread = %q, want %q", got, tc.want)
			}
		})
	}
}
