package groundhog_test

import (
	"go/ast"
	"path"
	"path/filepath"
	"slices"
	"strconv"
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
	"gateway.ProtoError.RetryAfterSecs": "wire field the reference client decodes",
}

// readByStdlib are method names the standard library calls through its
// interfaces (error, fmt.Stringer, http.Handler).
var readByStdlib = map[string]bool{"Error": true, "Unwrap": true, "Is": true, "String": true, "ServeHTTP": true}

// TestExportedNamesHaveReaders lists every exported func, method and struct
// field declared in a non-test file under internal/ that no non-test file of
// the repository reads, the nested bench/e2e module included, and requires
// the list to equal keptUnread. Funcs resolve through a file's imports or by
// bare name in their own package; methods and fields match by name across
// the repository, so a name collision hides a name. A field on an
// assignment's left side (indexed or not), in an inc/dec or as a
// composite-literal key is written, not read; a field with a json tag is
// read by encoding/json.
func TestExportedNamesHaveReaders(t *testing.T) {
	declared := map[string]string{} // "pkg.Func" or "pkg.Type.Member" -> its key in used
	used := map[string]bool{}       // "pkg.Func" for a func, the bare name for a member
	parseGoFiles(t, false, func(p string, f *ast.File) {
		pkg := path.Base(filepath.ToSlash(filepath.Dir(p)))
		if strings.HasPrefix(filepath.ToSlash(p), "internal/") {
			declare(f, pkg, declared)
		}
		imports := map[string]string{} // name in this file -> package directory
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = path.Base(ip)
		}
		var read func(n ast.Node) bool
		written := func(e ast.Expr) { // a write target's own selector is not a read
			for {
				switch x := e.(type) {
				case *ast.IndexExpr:
					ast.Inspect(x.Index, read)
					e = x.X
				case *ast.SelectorExpr:
					ast.Inspect(x.X, read)
					return
				default:
					ast.Inspect(e, read)
					return
				}
			}
		}
		read = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl: // its own name is not a read
				ast.Inspect(n.Type, read)
				if n.Body != nil {
					ast.Inspect(n.Body, read)
				}
				return false
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					written(e)
				}
				for _, e := range n.Rhs {
					ast.Inspect(e, read)
				}
				return false
			case *ast.IncDecStmt:
				written(n.X)
				return false
			case *ast.KeyValueExpr:
				if _, field := n.Key.(*ast.Ident); !field {
					ast.Inspect(n.Key, read)
				}
				ast.Inspect(n.Value, read)
				return false
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
					used[imports[id.Name]+"."+n.Sel.Name] = true
					return false
				}
				used[n.Sel.Name] = true
				ast.Inspect(n.X, read)
				return false
			case *ast.Ident:
				used[pkg+"."+n.Name] = true
			}
			return true
		}
		for _, decl := range f.Decls {
			ast.Inspect(decl, read)
		}
	})
	var diff []string
	for name, key := range declared {
		if _, kept := keptUnread[name]; !kept && !used[key] {
			diff = append(diff, "no production reader (delete it, or keep it in keptUnread with a reason): "+name)
		}
	}
	for name := range keptUnread {
		if key, ok := declared[name]; !ok || used[key] {
			diff = append(diff, "stale keptUnread entry (it is read, or gone): "+name)
		}
	}
	slices.Sort(diff)
	if len(diff) > 0 {
		t.Error(strings.Join(diff, "\n"))
	}
}

// declare records f's exported funcs, methods and struct fields with the key
// that marks each one read: "pkg.Func" for a func, the bare name for a
// member. Methods the standard library calls, json-tagged fields and
// embedded fields (reached through their own members) are read by
// definition and left out.
func declare(f *ast.File, pkg string, declared map[string]string) {
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			switch name := decl.Name.Name; {
			case !decl.Name.IsExported() || readByStdlib[name] && decl.Recv != nil:
			case decl.Recv == nil:
				declared[pkg+"."+name] = pkg + "." + name
			default:
				declared[pkg+"."+recvType(decl.Recv.List[0].Type)+"."+name] = name
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if field.Tag != nil && strings.Contains(field.Tag.Value, `json:"`) {
						continue
					}
					for _, n := range field.Names {
						if n.IsExported() {
							declared[pkg+"."+ts.Name.Name+"."+n.Name] = n.Name
						}
					}
				}
			}
		}
	}
}

// recvType names a method's receiver type: T for T, *T, T[P] and *T[P, Q].
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	}
	return e.(*ast.Ident).Name
}
