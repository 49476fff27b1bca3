package lint

import "go/ast"

// ReadOnly keeps the derivation engines read-only over the graph. The
// chase, EMMR, EMVC, matching, discovery and key packages derive from
// the graph; mutation belongs to the write path (internal/graph via
// internal/inc and the public Matcher). A direct mutation call from an
// engine bypasses planning, WAL logging and incremental repair at once
// — and, the graph being one writer or many readers, races every
// reader the engine runs beside.
var ReadOnly = &Analyzer{
	Name: "readonly",
	Doc:  "derivation engines never call graph mutators",
	Run:  runReadOnly,
}

// readOnlyPkgs are the engine packages the rule applies to (matched by
// path suffix).
var readOnlyPkgs = []string{
	"internal/chase",
	"internal/emmr",
	"internal/emvc",
	"internal/match",
	"internal/discover",
	"internal/eqrel",
	"internal/keys",
	"internal/pattern",
}

// graphMutators are the *graph.Graph entry points that mutate the
// store.
var graphMutators = map[string]bool{
	"AddEntity":        true,
	"MustAddEntity":    true,
	"AddValue":         true,
	"AddTriple":        true,
	"MustAddTriple":    true,
	"ApplyDelta":       true,
	"ApplyDeltaLogged": true,
}

func runReadOnly(pass *Pass) error {
	readOnly := false
	for _, s := range readOnlyPkgs {
		if pkgIs(pass.Pkg.Path(), s) {
			readOnly = true
			break
		}
	}
	if !readOnly {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkReadOnly(pass, fd)
			}
		}
	}
	return nil
}

func checkReadOnly(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || !graphMutators[fn.Name()] {
			return true
		}
		r := recvNamed(fn)
		if r == nil || r.Obj().Name() != "Graph" || r.Obj().Pkg() == nil || !pkgIs(r.Obj().Pkg().Path(), "internal/graph") {
			return true
		}
		pass.Reportf(call.Pos(),
			"graph mutation (%s) from a read-only engine package: derivation engines must not bypass the write path (mutate through graph deltas via the matcher / internal/inc)", fn.Name())
		return true
	})
}
