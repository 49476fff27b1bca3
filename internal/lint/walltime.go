package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// WallTime keeps wall-clock time out of test verdicts. In a _test.go
// file, a t.Error*/t.Fatal* guarded by a comparison one of whose
// operands derives from time.Since, time.Until or Time.Sub — directly,
// or through the variables and Duration arithmetic such a value flows
// into — is a finding: tier-1 runs other packages' tests on the same
// cores, so such a bound passes some runs and fails others. Assert on
// the work done and log the time.
var WallTime = &Analyzer{
	Name:  "walltime",
	Doc:   "tests must not pass or fail on a wall-clock comparison",
	Run:   runWallTime,
	Tests: true,
}

func runWallTime(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && isTestFile(pass.Fset, fd.Pos()) {
				wallTimeFunc(pass, fd.Body)
			}
		}
	}
	return nil
}

func wallTimeFunc(pass *Pass, body *ast.BlockStmt) {
	clock := make(map[types.Object]bool)
	derived := func(e ast.Node) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pass.TypesInfo, n)
				found = found || fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
					(fn.Name() == "Since" || fn.Name() == "Until" || fn.Name() == "Sub")
			case *ast.Ident:
				found = found || clock[pass.TypesInfo.ObjectOf(n)]
			}
			return !found
		})
		return found
	}
	// A variable is wall-clock once anything assigned to it is; iterate
	// to a fixpoint so the order of assignments does not matter.
	for changed := true; changed; {
		changed = false
		mark := func(lhs ast.Expr, rhs ast.Node) {
			if id := rootIdent(lhs); id != nil {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil && !clock[obj] && derived(rhs) {
					clock[obj], changed = true, true
				}
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, l := range s.Lhs {
					mark(l, s.Rhs[min(i, len(s.Rhs)-1)])
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if len(s.Values) > 0 {
						mark(name, s.Values[min(i, len(s.Values)-1)])
					}
				}
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok && failsTest(pass, ifs) {
			ast.Inspect(ifs.Cond, func(n ast.Node) bool {
				b, ok := n.(*ast.BinaryExpr)
				if ok && (b.Op == token.LSS || b.Op == token.GTR || b.Op == token.LEQ || b.Op == token.GEQ ||
					b.Op == token.EQL || b.Op == token.NEQ) && (derived(b.X) || derived(b.Y)) {
					pass.Reportf(b.Pos(), "test verdict on a wall-clock comparison (%s): it depends on what else the machine runs; assert on work done and log the time", exprText(b))
					return false
				}
				return true
			})
		}
		return true
	})
}

// failsTest reports whether ifs calls Error*/Fatal* of package testing.
func failsTest(pass *Pass, ifs *ast.IfStmt) bool {
	found := false
	ast.Inspect(ifs, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			fn := calleeFunc(pass.TypesInfo, call)
			found = found || fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "testing" &&
				(strings.HasPrefix(fn.Name(), "Error") || strings.HasPrefix(fn.Name(), "Fatal"))
		}
		return !found
	})
	return found
}
