// Package scratchescape implements the statlint check for the first
// rule of DESIGN.md's "Memory model": a *dist.Dist produced by an
// Into-form kernel running on a non-nil *dist.Arena is a scratch view,
// invalidated by the arena's next Reset, and must flow through
// Dist.Persist or Keeper.Persist before being retained anywhere that
// can outlive the reset.
//
// The check is intraprocedural and flow-insensitive. Within each
// function it marks as scratch every variable assigned from a call
// that takes a non-nil *dist.Arena argument and returns a *dist.Dist —
// that covers the dist kernels (ConvolveInto, MaxIndepInto, ...) and
// every statsize helper that threads an arena (computeArrival, ...).
// A scratch variable is cleansed if it is ever reassigned from a
// Persist call. It then flags scratch values
// that escape:
//
//   - stored to a struct field, map or slice element, dereferenced
//     pointer, or package-level variable
//   - placed in a composite literal, appended to a slice, or sent on a
//     channel
//   - returned from an exported function or method
//
// Returning scratch from an unexported function is allowed — that is
// how the kernel helpers hand results up to the caller that owns the
// arena — and passing scratch as a call argument is not tracked (the
// callee is assumed to follow the same rules; this is the documented
// false-negative class of a flow-insensitive check). Because the
// cleanse rule is unordered, an escape that happens before a later
// x = x.Persist() reassignment is also missed; persisting into a fresh
// variable keeps the check sound. Package dist itself is exempt: its
// kernels are the constructors whose contract is to return scratch.
package scratchescape

import (
	"go/ast"
	"go/types"

	"statsize/internal/analyzers/analysis"
	"statsize/internal/analyzers/typeutil"
)

// Analyzer is the scratchescape pass.
var Analyzer = &analysis.Analyzer{
	Name: "scratchescape",
	Doc:  "arena-scratch *dist.Dist values must be Persisted before they are retained or cross an exported boundary",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == typeutil.DistPath {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Body, exportedBoundary(fn))
				}
			case *ast.FuncLit:
				checkFunc(pass, fn.Body, false)
			}
			return true
		})
	}
	return nil
}

// exportedBoundary reports whether returning from fn crosses an
// exported boundary: an exported function, or an exported method on an
// exported type.
func exportedBoundary(fn *ast.FuncDecl) bool {
	if !fn.Name.IsExported() {
		return false
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.IsExported()
	}
	return true
}

// checkFunc analyzes one function body. Nested function literals are
// skipped here — the Inspect loop in run visits each exactly once.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, exported bool) {
	scratch := collectScratchVars(pass, body)
	isScratch := func(e ast.Expr) bool {
		e = typeutil.Unparen(e)
		if id, ok := e.(*ast.Ident); ok {
			v, _ := pass.Info.Uses[id].(*types.Var)
			return v != nil && scratch[v]
		}
		if call, ok := e.(*ast.CallExpr); ok {
			return isScratchCall(pass, call)
		}
		return false
	}
	walkSkippingFuncLits(body, func(n ast.Node) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				rhs := rhsFor(st, i)
				if rhs == nil || !isScratch(rhs) {
					continue
				}
				if where := escapingLHS(pass, lhs); where != "" {
					pass.Reportf(rhs.Pos(), "arena-scratch *dist.Dist stored in %s without Persist (the value dies at the next Arena.Reset)", where)
				}
			}
		case *ast.SendStmt:
			if isScratch(st.Value) {
				pass.Reportf(st.Value.Pos(), "arena-scratch *dist.Dist sent on a channel without Persist (the value dies at the next Arena.Reset)")
			}
		case *ast.CallExpr:
			if id, ok := typeutil.Unparen(st.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					for _, arg := range st.Args[1:] {
						if isScratch(arg) {
							pass.Reportf(arg.Pos(), "arena-scratch *dist.Dist appended to a slice without Persist (the value dies at the next Arena.Reset)")
						}
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range st.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if isScratch(v) {
					pass.Reportf(v.Pos(), "arena-scratch *dist.Dist stored in a composite literal without Persist (the value dies at the next Arena.Reset)")
				}
			}
		case *ast.ReturnStmt:
			if !exported {
				return
			}
			for _, res := range st.Results {
				if isScratch(res) {
					pass.Reportf(res.Pos(), "arena-scratch *dist.Dist returned across an exported boundary without Persist")
				}
			}
		}
	})
}

// rhsFor pairs the i-th LHS of an assignment with its RHS expression,
// or nil for the multi-value forms (x, err := f()) — those are handled
// as whole-call assignments in collectScratchVars and cannot
// themselves be escaping stores to compound LHS expressions in Go.
func rhsFor(st *ast.AssignStmt, i int) ast.Expr {
	if len(st.Rhs) == len(st.Lhs) {
		return st.Rhs[i]
	}
	return nil
}

// escapingLHS classifies an assignment target that would retain the
// value beyond the current frame; "" means the store is a plain local
// rebind and safe.
func escapingLHS(pass *analysis.Pass, lhs ast.Expr) string {
	switch l := typeutil.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[l]; ok && sel.Kind() == types.FieldVal {
			return "a struct field"
		}
		// Qualified package identifier (pkg.Var).
		if v, ok := pass.Info.Uses[l.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "a package-level variable"
		}
	case *ast.IndexExpr:
		return "a map or slice element"
	case *ast.StarExpr:
		return "a dereferenced pointer"
	case *ast.Ident:
		if v, ok := pass.Info.Uses[l].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "a package-level variable"
		}
	}
	return ""
}

// isScratchCall reports whether a call produces arena scratch: its
// signature takes a *dist.Arena, the corresponding argument is not the
// nil literal, and it returns a *dist.Dist.
func isScratchCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sig := typeutil.Signature(pass.Info, call)
	if sig == nil {
		return false
	}
	returnsDist := false
	for i := 0; i < sig.Results().Len(); i++ {
		if typeutil.IsPtrTo(sig.Results().At(i).Type(), typeutil.DistPath, "Dist") {
			returnsDist = true
			break
		}
	}
	if !returnsDist {
		return false
	}
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		if !typeutil.IsPtrTo(sig.Params().At(i).Type(), typeutil.DistPath, "Arena") {
			continue
		}
		if !typeutil.IsNilIdent(pass.Info, call.Args[i]) {
			return true
		}
	}
	return false
}

// isPersistCall reports whether a call is Dist.Persist or
// Keeper.Persist — the sanctioned scratch-to-immutable boundary.
func isPersistCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := typeutil.Callee(pass.Info, call)
	return fn != nil && fn.Name() == "Persist" && fn.Pkg() != nil && fn.Pkg().Path() == typeutil.DistPath
}

// collectScratchVars runs the flow-insensitive marking: a fixpoint over
// assignments propagates scratch-ness from kernel calls through
// variable copies, then every variable that is also reassigned from a
// Persist call is cleansed.
func collectScratchVars(pass *analysis.Pass, body *ast.BlockStmt) map[*types.Var]bool {
	scratch := make(map[*types.Var]bool)
	persisted := make(map[*types.Var]bool)
	lhsVar := func(e ast.Expr) *types.Var {
		id, ok := typeutil.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if v, ok := pass.Info.Defs[id].(*types.Var); ok {
			return v
		}
		v, _ := pass.Info.Uses[id].(*types.Var)
		return v
	}
	// assign records one lhs := rhs pair into the maps; returns whether
	// the scratch set grew (for the fixpoint).
	assign := func(lhs, rhs ast.Expr) bool {
		v := lhsVar(lhs)
		if v == nil || !typeutil.IsPtrTo(v.Type(), typeutil.DistPath, "Dist") {
			return false
		}
		rhs = typeutil.Unparen(rhs)
		if call, ok := rhs.(*ast.CallExpr); ok {
			if isPersistCall(pass, call) {
				persisted[v] = true
				return false
			}
			if isScratchCall(pass, call) && !scratch[v] {
				scratch[v] = true
				return true
			}
			return false
		}
		if id, ok := rhs.(*ast.Ident); ok {
			if src, ok := pass.Info.Uses[id].(*types.Var); ok && scratch[src] && !scratch[v] {
				scratch[v] = true
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		walkSkippingFuncLits(body, func(n ast.Node) {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for i := range st.Lhs {
						if assign(st.Lhs[i], st.Rhs[i]) {
							changed = true
						}
					}
				} else if len(st.Rhs) == 1 {
					// x, err := f(...): mark every *dist.Dist LHS when the
					// call is scratch-producing.
					call, ok := typeutil.Unparen(st.Rhs[0]).(*ast.CallExpr)
					if !ok || !isScratchCall(pass, call) {
						return
					}
					for _, lhs := range st.Lhs {
						if v := lhsVar(lhs); v != nil && typeutil.IsPtrTo(v.Type(), typeutil.DistPath, "Dist") && !scratch[v] {
							scratch[v] = true
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range st.Names {
					if i < len(st.Values) {
						if assign(name, st.Values[i]) {
							changed = true
						}
					}
				}
			}
		})
	}
	for v := range persisted {
		delete(scratch, v)
	}
	return scratch
}

// walkSkippingFuncLits visits every node of body except subtrees rooted
// at nested function literals, which are analyzed as functions of their
// own.
func walkSkippingFuncLits(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
