package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// Findings in _test.go files are dropped: tests drop errors and build
// maps on purpose.
func TestTestFilesAreExempt(t *testing.T) {
	const src = `package p

func keys(m map[int]bool) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p_test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	findings := check(t, fset, f)
	if len(findings) != 0 {
		t.Errorf("findings reported in a _test.go file: %v", findings)
	}
}

func check(t *testing.T, fset *token.FileSet, f *ast.File) []finding {
	t.Helper()
	info := newTypesInfo()
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := runAnalyzers(All(), Pass{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, TypesInfo: info})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}
