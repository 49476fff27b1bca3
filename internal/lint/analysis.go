// Package lint is emlint: a suite of repo-specific static analyzers
// that mechanically enforce the invariants the system's guarantees
// rest on — byte-identical derivations at every worker count
// (maporder), derivation engines that never mutate the graph
// (readonly), instrumentation that does not allocate per event
// (obshandle), write-ahead durability (walerr), and tests whose verdict
// is work done, not wall-clock time (walltime).
//
// The suite runs as a `go vet` tool:
//
//	go build -o /tmp/emlint ./cmd/emlint
//	go vet -vettool=/tmp/emlint ./...
//
// or directly (`emlint ./...` re-executes itself through go vet).
//
// The framework here is a deliberately small, dependency-free subset
// of golang.org/x/tools/go/analysis: an Analyzer inspects one
// type-checked package and reports position-tagged diagnostics. The
// driver (unit.go) speaks the unitchecker command-line protocol that
// `go vet -vettool` requires, importing dependency type information
// from the compiler's export data, so no code outside the standard
// library is needed.
//
// A finding has no waiver: code an analyzer flags is fixed, or the
// analyzer learns the pattern that makes it safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one analysis: a name (used in output), a
// one-line doc string, and the function that runs it over a single
// package. Findings in _test.go files are dropped unless Tests is set:
// the analyzers enforce production invariants, and only those about
// tests themselves (walltime) look there.
type Analyzer struct {
	Name  string
	Doc   string
	Run   func(*Pass) error
	Tests bool
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// All returns the analyzer suite in output order.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		ReadOnly,
		ObsHandle,
		WalErr,
		WallTime,
	}
}

// finding pairs a diagnostic with the analyzer that produced it; the
// drivers (unit.go and linttest) work on findings so output can be
// analyzer-aware.
type finding struct {
	analyzer string
	diag     Diagnostic
}

// runAnalyzers executes every analyzer over one package, returning the
// findings in file/position order per analyzer. Findings in _test.go
// files are dropped unless the analyzer is about tests (Analyzer.Tests):
// the other invariants are about production code.
func runAnalyzers(analyzers []*Analyzer, pass Pass) ([]finding, error) {
	var out []finding
	for _, a := range analyzers {
		p := pass // copy
		p.Analyzer = a
		var diags []Diagnostic
		p.Report = func(d Diagnostic) { diags = append(diags, d) }
		if err := a.Run(&p); err != nil {
			return nil, err
		}
		for _, d := range diags {
			if !isTestFile(pass.Fset, d.Pos) || a.Tests {
				out = append(out, finding{analyzer: a.Name, diag: d})
			}
		}
	}
	return out, nil
}

// ---- shared helpers ----

// pkgIs reports whether a package path is, or ends with, the given
// canonical path suffix ("internal/obs" matches both the real
// "graphkeys/internal/obs" and a test fixture's "internal/obs").
func pkgIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// isTestFile reports whether pos lies in a _test.go file. The
// analyzers enforce production invariants; tests build graphs and
// drop errors on purpose.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedOf returns the named type of t (through one pointer), or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	n, _ := deref(t).(*types.Named)
	return n
}

// typeIs reports whether t (through one pointer) is the named type
// pkgSuffix.name.
func typeIs(t types.Type, pkgSuffix, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && pkgIs(n.Obj().Pkg().Path(), pkgSuffix)
}

// calleeFunc resolves a call's static callee (function or method), or
// nil for dynamic calls and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// recvNamed returns the named receiver type of a method (through one
// pointer), or nil for plain functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// returnsError reports whether fn's signature includes an error
// result.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// rootIdent returns the leftmost identifier of a selector/index/call
// chain (a in a.b[i].c()), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// usesAnyObject reports whether expr references any of the given
// objects.
func usesAnyObject(info *types.Info, expr ast.Node, objs map[types.Object]bool) bool {
	if len(objs) == 0 {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil && objs[obj] {
				found = true
			}
		}
		return true
	})
	return found
}

// exprText renders an expression in canonical form for textual
// comparison (nil-guard matching, sort-target matching).
func exprText(e ast.Expr) string {
	return types.ExprString(e)
}
