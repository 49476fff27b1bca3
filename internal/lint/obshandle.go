package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ObsHandle guards the observability substrate's two contracts
// (internal/obs, PR 6):
//
//  1. Handles are nil-safe by METHOD, not by field. A *obs.Counter (or
//     Gauge, Histogram, Tracer) read out of a struct field
//     and used directly reintroduces the nil checks the handle types
//     were built to absorb — instrumented code must either go through
//     a nil-safe accessor or guard the field itself. The analyzer
//     flags handle-field reads unless the enclosing function visibly
//     nil-checks the field, received it as a parameter (the accessor
//     pattern: the caller picked the field, the callee guards nil),
//     or is writing the field (wiring).
//
//  2. Hot-path instrumentation must not allocate per event. Counters
//     and spans sit on the write and derivation paths; an
//     fmt.Sprintf'd label or a composite literal built per Inc/Observe
//     turns free instrumentation into allocation pressure. Labels must
//     be constants or precomputed.
var ObsHandle = &Analyzer{
	Name: "obshandle",
	Doc:  "obs handles are used via nil-safe methods or guarded fields; per-event obs calls must not allocate",
	Run:  runObsHandle,
}

// obsHandleTypes are the nil-safe handle types of internal/obs.
var obsHandleTypes = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
	"Tracer":    true,
}

// obsEventMethods are handle methods called per event (as opposed to
// wiring/snapshot calls, which are rare).
var obsEventMethods = map[string]bool{
	"Inc":          true,
	"Add":          true,
	"Dec":          true,
	"Set":          true,
	"Observe":      true,
	"ObserveSince": true,
	"Begin":        true,
}

func runObsHandle(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkHandleFieldReads(pass, fd)
			checkAllocatingObsCalls(pass, fd.Body)
		}
	}
	return nil
}

// isObsHandlePtr reports whether t is *obs.Counter etc.
func isObsHandlePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n := namedOf(p.Elem())
	return n != nil && obsHandleTypes[n.Obj().Name()] &&
		n.Obj().Pkg() != nil && pkgIs(n.Obj().Pkg().Path(), "internal/obs")
}

// ---- rule 1: handle fields read without a guard ----

func checkHandleFieldReads(pass *Pass, fd *ast.FuncDecl) {
	type frame struct {
		node   ast.Node        // *ast.FuncDecl or *ast.FuncLit
		params map[string]bool // base idents that are params/receiver of this frame
	}
	var stack []frame

	paramsOf := func(recv *ast.FieldList, typ *ast.FuncType) map[string]bool {
		m := make(map[string]bool)
		add := func(fl *ast.FieldList) {
			if fl == nil {
				return
			}
			for _, f := range fl.List {
				for _, name := range f.Names {
					m[name.Name] = true
				}
			}
		}
		add(recv)
		add(typ.Params)
		return m
	}
	stack = append(stack, frame{fd, paramsOf(fd.Recv, fd.Type)})

	// Nil guards anywhere in the top-level function count (the common
	// shape is `if x.c == nil { return }` or a switch on the fields).
	guards := nilCompares(fd.Body)

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			stack = append(stack, frame{n, paramsOf(nil, n.Type)})
			ast.Inspect(n.Body, visit)
			stack = stack[:len(stack)-1]
			return false
		case *ast.AssignStmt:
			// Writes wire the handles up; only inspect the RHS.
			for _, rhs := range n.Rhs {
				ast.Inspect(rhs, visit)
			}
			for _, lhs := range n.Lhs {
				// Index expressions etc. on the LHS still read sub-exprs,
				// but handle fields as assignment targets are wiring.
				if _, ok := ast.Unparen(lhs).(*ast.SelectorExpr); !ok {
					ast.Inspect(lhs, visit)
				}
			}
			return false
		case *ast.SelectorExpr:
			s, ok := pass.TypesInfo.Selections[n]
			if !ok || s.Kind() != types.FieldVal || !isObsHandlePtr(s.Type()) {
				return true
			}
			// Exempt: the base is a parameter or receiver of the current
			// frame — the accessor/closure pattern, where the caller chose
			// the field and the handle's methods absorb nil.
			if root := rootIdent(n.X); root != nil && stack[len(stack)-1].params[root.Name] {
				return true
			}
			// Exempt: the function nil-checks the base or the field itself.
			if guards[exprText(n.X)] || guards[exprText(n)] {
				return true
			}
			pass.Reportf(n.Pos(),
				"obs handle field %s read without a nil guard: use the nil-safe accessor (or methods on a handle passed in as a parameter), or nil-check the field in this function", exprText(n))
			return true
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
}

// nilCompares collects the text of every expression compared against
// nil in body (x == nil, x != nil), including inside nested literals.
func nilCompares(body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		xNil := isNilIdent(be.X)
		yNil := isNilIdent(be.Y)
		if xNil == yNil {
			return true
		}
		if xNil {
			out[exprText(ast.Unparen(be.Y))] = true
		} else {
			out[exprText(ast.Unparen(be.X))] = true
		}
		return true
	})
	return out
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// ---- rule 2: allocating arguments on per-event calls ----

func checkAllocatingObsCalls(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || !obsEventMethods[fn.Name()] {
			return true
		}
		r := recvNamed(fn)
		if r == nil || !obsHandleTypes[r.Obj().Name()] ||
			r.Obj().Pkg() == nil || !pkgIs(r.Obj().Pkg().Path(), "internal/obs") {
			return true
		}
		for _, arg := range call.Args {
			if desc, ok := allocatingExpr(pass, arg); ok {
				pass.Reportf(arg.Pos(),
					"%s built per event in %s.%s call: hot-path instrumentation must not allocate; use a constant or precomputed label", desc, r.Obj().Name(), fn.Name())
			}
		}
		return true
	})
}

// allocatingExpr reports argument shapes that allocate on every call.
func allocatingExpr(pass *Pass, e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if fn := calleeFunc(pass.TypesInfo, e); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			switch fn.Name() {
			case "Sprintf", "Sprint", "Sprintln", "Errorf":
				return "fmt." + fn.Name() + " result", true
			}
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD && isStringType(pass.TypesInfo.TypeOf(e)) {
			// Constant folding makes "a"+"b" free; only flag when the
			// whole expression is not a compile-time constant.
			if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value == nil {
				return "string concatenation", true
			}
		}
	case *ast.CompositeLit:
		return "composite literal", true
	}
	return "", false
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
