package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockContract encodes the write path's locking discipline
// (internal/graph/plan.go, internal/graph/shard.go) as four rules:
//
//  1. No blocking call while the plan mutex is held. Planning is the
//     global serialization point of the write path; an fsync, a
//     durability-commit wait, a WaitGroup wait or an engine.Parallel
//     fan-out inside the plan-mutex hold turns every concurrent
//     writer into a convoy (and a commit wait can deadlock outright,
//     since commits group across planners). The group-commit design
//     exists precisely so these happen OUTSIDE the hold.
//
//  2. No shard-internal access without the shard lock. A function
//     that reaches into a shard's tables (nodes, adjacency, triple
//     set, postings) must take that shard's mutex itself or receive
//     the *shard from a caller that does (the helper contract —
//     helpers taking a *shard parameter inherit the caller's lock).
//
//  3. Derivation engines are read-only over the graph. The chase,
//     EMMR, EMVC, matching, discovery and key packages derive from
//     the graph; mutation belongs to the admission-gated write path
//     (internal/graph via internal/inc and the public Matcher). A
//     direct mutation call from an engine bypasses planning, WAL
//     logging and incremental repair at once.
//
//  4. The optimistic-plan contract. Optimistic planning exists to move
//     footprint recording OFF the plan mutex: a call that records
//     reads into a footprint (a method on the footprint type, or an
//     fpXxx-named read helper) under the plan mutex re-serializes the
//     expensive half of planning and defeats the design. The one
//     footprint recorded under the mutex is an exclusive plan's — the
//     whole planning pass run with every shard admitted, after the
//     optimistic replans are spent — which calls the plan function,
//     never a recorder, from the locked region, so the rule needs no
//     exception for it. Dually, revalidation exists to be the
//     admission check: a revalidate call made while the plan mutex is
//     NOT held proves nothing, because the reads it confirms can go
//     stale before the plan admits.
var LockContract = &Analyzer{
	Name: "lockcontract",
	Doc:  "no blocking calls under the plan mutex; shard internals only under the shard lock; engines stay read-only; footprints recorded off the plan mutex, revalidated under it",
	Run:  runLockContract,
}

// readOnlyPkgs are the engine packages rule 3 applies to (matched by
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
			checkPlanMutexRegions(pass, fd.Body)
			checkOptimisticContract(pass, fd)
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

// ---- rule 1: blocking calls under the plan mutex ----

// planMutexRecv reports whether expr names the plan mutex: a mutex
// field (canonically "mu") of a struct whose type name contains
// "plan" (the planner), or a field itself named like planMu.
func planMutexRecv(pass *Pass, expr ast.Expr) bool {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if strings.Contains(strings.ToLower(sel.Sel.Name), "planmu") {
		return true
	}
	owner := namedOf(pass.TypesInfo.TypeOf(sel.X))
	return owner != nil && strings.Contains(strings.ToLower(owner.Obj().Name()), "plan")
}

// lockCall matches `<recv>.<name>()` and returns recv.
func lockCall(stmt ast.Stmt, name string) (ast.Expr, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil, false
	}
	return sel.X, true
}

func checkPlanMutexRegions(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range block.List {
			recv, ok := lockCall(stmt, "Lock")
			if !ok || !planMutexRecv(pass, recv) {
				continue
			}
			scanLockedRegion(pass, block.List[i+1:], exprText(recv))
		}
		return true
	})
}

// scanLockedRegion walks the statements after a plan-mutex Lock until
// the matching top-level Unlock, reporting blocking calls. Branches
// are scanned with their own unlock tracking (an early-exit branch
// that unlocks stops being a locked region); function literals are
// not descended into (they run elsewhere).
func scanLockedRegion(pass *Pass, stmts []ast.Stmt, recvText string) (unlocked bool) {
	for _, stmt := range stmts {
		if r, ok := lockCall(stmt, "Unlock"); ok && exprText(r) == recvText {
			return true
		}
		switch s := stmt.(type) {
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the region open to function end.
			reportBlockingIn(pass, s.Call)
		case *ast.IfStmt:
			if s.Init != nil {
				reportBlockingIn(pass, s.Init)
			}
			reportBlockingIn(pass, s.Cond)
			scanLockedRegion(pass, s.Body.List, recvText)
			if s.Else != nil {
				if eb, ok := s.Else.(*ast.BlockStmt); ok {
					scanLockedRegion(pass, eb.List, recvText)
				} else {
					scanLockedRegion(pass, []ast.Stmt{s.Else}, recvText)
				}
			}
		case *ast.ForStmt:
			reportBlockingIn(pass, s)
		case *ast.RangeStmt:
			reportBlockingIn(pass, s)
		case *ast.BlockStmt:
			if scanLockedRegion(pass, s.List, recvText) {
				return true
			}
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			reportBlockingIn(pass, s)
		default:
			reportBlockingIn(pass, stmt)
		}
	}
	return false
}

// reportBlockingIn inspects one node (without entering function
// literals) for calls that can block.
func reportBlockingIn(pass *Pass, node ast.Node) {
	if node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if desc, ok := blockingCall(pass, call); ok {
			pass.Reportf(call.Pos(),
				"%s while the plan mutex is held: planning is the write path's serialization point; move the blocking call after Unlock (see the group-commit path in internal/graph/plan.go)", desc)
		}
		return true
	})
}

// blockingCall classifies calls that must not run under the plan
// mutex.
func blockingCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	if fn := calleeFunc(pass.TypesInfo, call); fn != nil {
		switch {
		case fn.Name() == "Parallel" && fn.Pkg() != nil && pkgIs(fn.Pkg().Path(), "internal/engine"):
			return "engine.Parallel fan-out", true
		case fn.Name() == "Submit" && fn.Pkg() != nil && pkgIs(fn.Pkg().Path(), "internal/engine") &&
			recvNamed(fn) != nil && recvNamed(fn).Obj().Name() == "Pool":
			// Submitting couples the locked region to the pool (and the
			// paired Wait blocks on it); both belong after Unlock.
			return "engine.Pool.Submit", true
		case fn.Name() == "Sync" && recvNamed(fn) != nil && returnsError(fn):
			return "fsync (" + recvNamed(fn).Obj().Name() + ".Sync)", true
		case fn.Name() == "Wait" && recvNamed(fn) != nil:
			// sync.Cond.Wait releases the mutex it guards — that is the
			// admission protocol itself, not a violation.
			if r := recvNamed(fn); !(r.Obj().Name() == "Cond" && r.Obj().Pkg() != nil && r.Obj().Pkg().Name() == "sync") {
				return r.Obj().Name() + ".Wait", true
			}
		case fn.Name() == "commitWait":
			return "commit wait", true
		}
		return "", false
	}
	// Dynamic call: a durability commit (graph.DeltaCommit) blocks on
	// the group fsync.
	if t := pass.TypesInfo.TypeOf(call.Fun); t != nil {
		if n := namedOf(t); n != nil && n.Obj().Name() == "DeltaCommit" && n.Obj().Pkg() != nil && pkgIs(n.Obj().Pkg().Path(), "internal/graph") {
			return "durability commit wait (DeltaCommit)", true
		}
	}
	return "", false
}

// ---- rule 2: shard internals only under the shard lock ----

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
		// Fields of sync/atomic type are self-synchronizing: the
		// optimistic planner's epoch loads are lock-free by design.
		if n := namedOf(s.Type()); n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic" {
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

// ---- rule 4: footprints off the plan mutex, revalidation under it ----

// posInterval is a source region in which the plan mutex is held.
type posInterval struct{ start, end token.Pos }

// planLockedIntervals computes the plan-mutex-held regions of a
// function body positionally: from each plan-mutex Lock to the first
// matching top-level Unlock in the same block, or to the block's end
// when the unlock is deferred or happens in a branch. Branch-local
// early unlocks therefore stay inside the interval: conservative for
// the recording check (more code counts as locked), and exact for the
// revalidation check wherever each block Locks at most once, which is
// the write path's discipline.
func planLockedIntervals(pass *Pass, body *ast.BlockStmt) []posInterval {
	var ivs []posInterval
	ast.Inspect(body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range block.List {
			recv, ok := lockCall(stmt, "Lock")
			if !ok || !planMutexRecv(pass, recv) {
				continue
			}
			end := block.End()
			for _, later := range block.List[i+1:] {
				if r, ok := lockCall(later, "Unlock"); ok && exprText(r) == exprText(recv) {
					end = later.Pos()
					break
				}
			}
			ivs = append(ivs, posInterval{start: stmt.End(), end: end})
		}
		return true
	})
	return ivs
}

// fpHelperName reports whether name follows the fpXxx convention of
// the footprint-recording read helpers (fpEnt, fpVal, fpPresent,
// fpEdges, ...).
func fpHelperName(name string) bool {
	return len(name) > 2 && strings.HasPrefix(name, "fp") &&
		name[2] >= 'A' && name[2] <= 'Z'
}

func checkOptimisticContract(pass *Pass, fd *ast.FuncDecl) {
	ivs := planLockedIntervals(pass, fd.Body)
	inside := func(p token.Pos) bool {
		for _, iv := range ivs {
			if p >= iv.start && p < iv.end {
				return true
			}
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch f := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			name = f.Name
		case *ast.SelectorExpr:
			name = f.Sel.Name
		default:
			return true
		}
		recorder := fpHelperName(name)
		if !recorder {
			if fn := calleeFunc(pass.TypesInfo, call); fn != nil {
				if r := recvNamed(fn); r != nil && r.Obj().Name() == "footprint" {
					recorder = true
				}
			}
		}
		if recorder && inside(call.Pos()) {
			pass.Reportf(call.Pos(),
				"footprint recording (%s) under the plan mutex: optimistic planning reads and records OFF the mutex; only revalidate under it (see internal/graph/plan.go)", name)
		}
		if name == "revalidate" && !inside(call.Pos()) {
			pass.Reportf(call.Pos(),
				"revalidation outside the plan mutex: a footprint revalidated without the plan mutex held can go stale before admission; take the plan mutex first (see internal/graph/plan.go)")
		}
		return true
	})
}

// ---- rule 3: engines are read-only over the graph ----

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
			"graph mutation (%s) from a read-only engine package: derivation engines must not bypass the admission-gated write path (mutate through graph deltas via the matcher / internal/inc)", fn.Name())
		return true
	})
}
