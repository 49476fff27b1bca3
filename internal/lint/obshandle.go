package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ObsHandle guards the observability substrate's allocation contract
// (internal/obs): hot-path instrumentation must not allocate per event.
// Counters and spans sit on the write and derivation paths; an
// fmt.Sprintf'd label or a composite literal built per Inc/Observe
// turns free instrumentation into allocation pressure. Labels must be
// constants or precomputed.
//
// Nil needs no rule: every handle method no-ops on a nil handle, and
// every layer's instrument bundle is a value or is swapped for the zero
// bundle at construction, so no bundle read can meet nil.
var ObsHandle = &Analyzer{
	Name: "obshandle",
	Doc:  "per-event obs calls must not allocate their arguments",
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
			checkAllocatingObsCalls(pass, fd.Body)
		}
	}
	return nil
}

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
