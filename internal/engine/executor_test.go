package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneGoStatement keeps Parallel the repository's one executor: of
// every non-test Go file under internal/ (testdata holds the linter's
// fixtures, not code), only Parallel's body holds a go statement. An
// engine that wants its work concurrent fans it out on Parallel.
func TestOneGoStatement(t *testing.T) {
	fset := token.NewFileSet()
	var found []string
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			name := "package scope"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				name = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					found = append(found, fset.Position(g.Pos()).Filename+" in "+name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join("..", "engine", "engine.go") + " in Parallel"
	if len(found) != 1 || found[0] != want {
		t.Errorf("go statements under internal/: %q, want only %q", found, want)
	}
}
