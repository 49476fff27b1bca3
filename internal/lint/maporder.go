package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `for range` loops over maps whose iteration order
// leaks into an ordered accumulation — an append to a slice that
// outlives the loop — without a sort between the loop and the slice's
// use. Go randomizes map iteration, so such a slice differs run to
// run and worker count to worker count; this is exactly the bug class
// PR 5 fixed twice by hand (unsorted tainted roots, unsorted type
// iteration), and byte-identical derivation order is a correctness
// contract for replay and for followers.
//
// Order-insensitive sinks are not flagged: writes into a map, counter
// updates, min/max selection with deterministic tie-breaks, and
// appends whose elements do not depend on the loop variables (the
// multiset of appended values is then order-independent). An append
// whose target is sorted later in the same function — the canonical
// collect-then-sort fix — is exempt. Anything the analyzer cannot see
// (the sort happens in a callee, the sink is a commutative reducer) is
// a finding: sort the result, or teach the analyzer the pattern.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration order must not flow into slices, logs or results without a sort",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, file := range pass.Files {
		// Functions are analyzed one at a time so the sorted-later
		// exemption can look at the rest of the enclosing function.
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					mapOrderFunc(pass, fn.Body)
				}
				return false // nested FuncLits handled via the body walk
			}
			return true
		})
	}
	return nil
}

// mapOrderFunc scans one function body (including nested literals —
// a literal's loop may still sort within the literal, which is the
// enclosing body we pass when recursing).
func mapOrderFunc(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRange(pass, body, rs)
		return true
	})
}

func checkMapRange(pass *Pass, enclosing *ast.BlockStmt, rs *ast.RangeStmt) {
	loopVars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				loopVars[obj] = true
			}
		}
	}
	if len(loopVars) == 0 {
		return // `for range m` without variables cannot leak order
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass.TypesInfo, call) {
				continue
			}
			// The appended elements must depend on the loop variables:
			// if they do not, the accumulated multiset is the same in
			// every order.
			dep := false
			for _, arg := range call.Args[1:] {
				if usesAnyObject(pass.TypesInfo, arg, loopVars) {
					dep = true
					break
				}
			}
			if !dep {
				continue
			}
			target := ast.Unparen(as.Lhs[i])
			if !orderSensitiveTarget(pass, rs, loopVars, target) {
				continue
			}
			if sortedAfter(pass, enclosing, target, rs.End()) {
				continue
			}
			pass.Reportf(as.Pos(),
				"append of map-iteration values to %s: map order is nondeterministic; sort the result before it is used",
				exprText(target))
		}
		return true
	})
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append" && len(call.Args) >= 2
}

// orderSensitiveTarget decides whether appending to target inside rs
// accumulates across iterations in a way that remembers order.
func orderSensitiveTarget(pass *Pass, rs *ast.RangeStmt, loopVars map[types.Object]bool, target ast.Expr) bool {
	switch t := target.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.ObjectOf(t)
		if obj == nil {
			return false
		}
		// A slice declared inside the loop body is per-iteration state;
		// only accumulation into something that outlives the loop leaks
		// order.
		if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
			return false
		}
		return true
	case *ast.IndexExpr:
		// m[k] = append(m[k], …) with k a loop variable touches a
		// distinct entry per iteration: the map sink absorbs the order.
		// An index that does NOT involve the loop variables funnels
		// every iteration into one slice — order-sensitive.
		if usesAnyObject(pass.TypesInfo, t.Index, loopVars) {
			return false
		}
		return true
	case *ast.SelectorExpr:
		return true // field of an outer struct
	}
	return false
}

// sortedAfter reports whether, somewhere after pos in the enclosing
// function body, target is passed to a sort (sort.* / slices.Sort*),
// which makes the collected order irrelevant.
func sortedAfter(pass *Pass, body *ast.BlockStmt, target ast.Expr, pos token.Pos) bool {
	targetText := exprText(target)
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || !isSortFunc(fn.Pkg().Path(), fn.Name()) {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
			arg = ast.Unparen(u.X)
		}
		if exprText(arg) == targetText {
			found = true
			return false
		}
		return true
	})
	return found
}

func isSortFunc(pkgPath, name string) bool {
	switch pkgPath {
	case "sort":
		switch name {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return true
		}
	case "slices":
		switch name {
		case "Sort", "SortFunc", "SortStableFunc":
			return true
		}
	}
	return false
}
