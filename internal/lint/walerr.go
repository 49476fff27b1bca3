package lint

import (
	"go/ast"
	"go/types"
)

// WalErr flags dropped errors on the durability path. The WAL's whole
// contract is "acknowledged means fsynced"; an ignored error from an
// append, a record's commit, a truncate/rewind, an fsync, or the
// snapshot's atomic rename silently converts a durability guarantee
// into a hope. The flagged call set is deliberately narrow:
//
//   - any function or method of internal/wal that returns an error
//     (Store methods — Add and the group's Commit among them — and the
//     logFile interface, including Close, whose error on a writable log
//     can carry a delayed write failure);
//   - os.Rename (the snapshot publish step);
//   - (*os.File).Sync (raw fsync);
//   - dynamic calls of graph.DeltaCommit (a per-record log's commit).
//
// os.File.Close on read-side or temp files is NOT in the set — the
// snapshot writer's cleanup closes are fine — and `defer`/`go`
// statements are skipped (Go offers no direct result there; those
// sites need an explicit wrapper anyway, which the analyzer would
// then see).
var WalErr = &Analyzer{
	Name: "walerr",
	Doc:  "errors from WAL appends, commits, fsyncs, rewinds and snapshot renames must be handled",
	Run:  runWalErr,
}

func runWalErr(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
				return false
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					if desc, ok := durabilityCall(pass, call); ok && callReturnsError(pass, call) {
						pass.Reportf(call.Pos(),
							"error from %s dropped: durability failures must be handled (return, break the store, or fold into the surrounding error)", desc)
					}
				}
				return false
			case *ast.AssignStmt:
				checkAssignDrop(pass, n)
				return true
			}
			return true
		})
	}
	return nil
}

// checkAssignDrop flags `_, x := f()` / `_ = f()` where the blanked
// position is an error result of a durability call.
func checkAssignDrop(pass *Pass, as *ast.AssignStmt) {
	// Only the multi-value form `a, b := f()` and the single form
	// `_ = f()` assign call results positionally.
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	desc, ok := durabilityCall(pass, call)
	if !ok {
		return
	}
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	res := sig.Results()
	for i, lhs := range as.Lhs {
		id, isIdent := ast.Unparen(lhs).(*ast.Ident)
		if !isIdent || id.Name != "_" {
			continue
		}
		if i >= res.Len() || !isErrorType(res.At(i).Type()) {
			continue
		}
		pass.Reportf(lhs.Pos(),
			"error from %s assigned to _: durability failures must be handled (return, break the store, or fold into the surrounding error)", desc)
	}
}

// callReturnsError reports whether the call has at least one
// error-typed result (for the bare-ExprStmt case).
func callReturnsError(pass *Pass, call *ast.CallExpr) bool {
	sig := callSignature(pass, call)
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

func callSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	t := pass.TypesInfo.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// durabilityCall classifies a call as belonging to the durability
// path, returning a human description.
func durabilityCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	if fn := calleeFunc(pass.TypesInfo, call); fn != nil {
		pkg := fn.Pkg()
		if pkg == nil {
			return "", false
		}
		// Anything of internal/wal that can return an error. This also
		// covers the logFile interface's methods (Sync, Truncate, Seek,
		// Close), which are declared in that package.
		if pkgIs(pkg.Path(), "internal/wal") && returnsError(fn) {
			if r := recvNamed(fn); r != nil {
				return "wal " + r.Obj().Name() + "." + fn.Name(), true
			}
			if r := fn.Type().(*types.Signature).Recv(); r != nil {
				return "wal log-file " + fn.Name(), true
			}
			return "wal." + fn.Name(), true
		}
		if pkg.Path() == "os" && fn.Name() == "Rename" {
			return "os.Rename (atomic publish)", true
		}
		if pkg.Path() == "os" && fn.Name() == "Sync" {
			if r := recvNamed(fn); r != nil && r.Obj().Name() == "File" {
				return "os.File.Sync (fsync)", true
			}
		}
		return "", false
	}
	// Dynamic call of the graph durability hook.
	if t := pass.TypesInfo.TypeOf(call.Fun); t != nil {
		if n := namedOf(t); n != nil && n.Obj().Name() == "DeltaCommit" &&
			n.Obj().Pkg() != nil && pkgIs(n.Obj().Pkg().Path(), "internal/graph") {
			return "DeltaCommit (a per-record log's commit)", true
		}
	}
	return "", false
}
