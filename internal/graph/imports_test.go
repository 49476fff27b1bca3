package graph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// sourceFiles parses the package's non-test files.
func sourceFiles(t *testing.T) map[string]*ast.File {
	t.Helper()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := make(map[string]*ast.File)
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = f
	}
	return files
}

// TestNoEngineImport keeps the store below the execution substrate: a
// delta is lowered on the goroutine that planned it, so no non-test
// file of this package imports internal/engine.
func TestNoEngineImport(t *testing.T) {
	for name, f := range sourceFiles(t) {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "graphkeys/internal/engine" {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
}

// TestOneLock pins the store's concurrency contract (see the package
// comment): a graph has one writer or any number of readers, never
// both, so readers take no lock and the writer mutex is the package's
// only synchronization. No non-test file imports sync/atomic or names
// sync.RWMutex, and the one sync.Mutex is Graph's writeMu.
func TestOneLock(t *testing.T) {
	var mutexes []string
	for name, f := range sourceFiles(t) {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "sync/atomic" {
				t.Errorf("%s imports %s", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					if isSyncType(field.Type, "Mutex") {
						for _, id := range field.Names {
							mutexes = append(mutexes, n.Name.Name+"."+id.Name)
						}
					}
				}
			case *ast.SelectorExpr:
				if isSyncType(n, "RWMutex") {
					t.Errorf("%s names sync.RWMutex", name)
				}
			}
			return true
		})
	}
	if len(mutexes) != 1 || mutexes[0] != "Graph.writeMu" {
		t.Errorf("struct mutexes %v, want exactly [Graph.writeMu]", mutexes)
	}
}

// isSyncType reports whether e is the selector sync.<name>.
func isSyncType(e ast.Expr, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "sync"
}
