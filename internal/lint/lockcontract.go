package lint

import (
	"go/ast"
	"go/types"
)

// LockContract encodes the write path's locking discipline
// (internal/graph/plan.go, internal/graph/shard.go) as two rules:
//
//  1. No shard-internal access without the shard lock. A function
//     that reaches into a shard's tables (nodes, adjacency, triple
//     set, postings) must take that shard's mutex itself or receive
//     the *shard from a caller that does (the helper contract —
//     helpers taking a *shard parameter inherit the caller's lock).
//
//  2. Derivation engines are read-only over the graph. The chase,
//     EMMR, EMVC, matching, discovery and key packages derive from
//     the graph; mutation belongs to the write path (internal/graph
//     via internal/inc and the public Matcher). A direct mutation call
//     from an engine bypasses planning, WAL logging and incremental
//     repair at once.
var LockContract = &Analyzer{
	Name: "lockcontract",
	Doc:  "shard internals only under the shard lock; engines stay read-only",
	Run:  runLockContract,
}

// readOnlyPkgs are the engine packages rule 2 applies to (matched by
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
	"internal/mapreduce",
	"internal/vertexcentric",
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

func runLockContract(pass *Pass) error {
	pkgPath := pass.Pkg.Path()
	inGraph := pkgIs(pkgPath, "internal/graph")
	readOnly := false
	for _, s := range readOnlyPkgs {
		if pkgIs(pkgPath, s) {
			readOnly = true
			break
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if inGraph {
				checkShardGuards(pass, fd)
			}
			if readOnly {
				checkReadOnly(pass, fd)
			}
		}
	}
	return nil
}

// ---- rule 1: shard internals only under the shard lock ----

func isShardType(pass *Pass, t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Name() == "shard" && n.Obj().Pkg() == pass.Pkg
}

func checkShardGuards(pass *Pass, fd *ast.FuncDecl) {
	// Parameters (and receiver) of *shard type inherit the caller's
	// lock: the helper contract.
	paramShards := make(map[types.Object]bool)
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.TypesInfo.ObjectOf(name); obj != nil && isShardType(pass, obj.Type()) {
					paramShards[obj] = true
				}
			}
		}
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)

	// Does the function itself take any shard's lock?
	locksShard := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Lock", "RLock":
			if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && isShardType(pass, pass.TypesInfo.TypeOf(inner.X)) {
				locksShard = true
				return false
			}
		}
		return true
	})
	if locksShard {
		return
	}

	reported := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok || s.Kind() != types.FieldVal || sel.Sel.Name == "mu" {
			return true
		}
		if !isShardType(pass, s.Recv()) {
			return true
		}
		if root := rootIdent(sel.X); root != nil {
			if obj := pass.TypesInfo.ObjectOf(root); obj != nil && paramShards[obj] {
				return true
			}
		}
		reported = true // one finding per function is enough signal
		pass.Reportf(sel.Pos(),
			"access to shard internals (%s) without taking the shard lock: lock sh.mu, or take the *shard as a parameter if the caller holds it", exprText(sel))
		return false
	})
}

// ---- rule 2: engines are read-only over the graph ----

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
