package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// mapOrderVisitFunc is the fence's map-order proof engine. It flags
// `range` statements over map types directly inside body whose loop
// body is order-dependent: Go randomizes map iteration order, so any
// such loop in the mapping pipeline can change covers, placements, or
// wire-cost tables from run to run.
//
// A map range is accepted without justification when its body is
// provably order-insensitive:
//
//   - every effect is a write into a map or set (m[k] = v, delete),
//   - or a commutative accumulation into a single integer-typed
//     variable (n += ..., n++); float accumulation is NOT exempt,
//     because float addition is non-associative and the sum depends on
//     visit order,
//   - or the canonical collect-then-sort idiom: the body only appends
//     to slice variables that are all passed to a sort call later in
//     the same function,
//   - with only pure control flow (if/continue with call-free
//     conditions) around those effects.
//
// Anything else needs sorted keys or a `//lint:sorted <why>` comment
// asserting order-insensitivity the engine cannot prove. Nested
// function literals are visited with their own body as the enclosing
// scope (their appends can't be sorted by the outer function).
func mapOrderVisitFunc(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			mapOrderVisitFunc(pass, lit.Body)
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if orderInsensitiveBody(pass, rng, body) {
			return true
		}
		pass.Reportf(rng.Pos(),
			"collect the keys into a slice, sort them, then iterate (or add `//lint:sorted <why>` if order provably cannot matter)",
			"range over map %s has an order-dependent body; map iteration order is randomized",
			typeString(tv.Type))
		return true
	})
}

func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// orderInsensitiveBody reports whether every statement in the range body
// is an order-insensitive effect under pure control flow. Slice appends
// are tolerated when every appended-to variable is sorted after the loop
// in the enclosing function.
func orderInsensitiveBody(pass *Pass, rng *ast.RangeStmt, enclosing *ast.BlockStmt) bool {
	ok := true
	var appendTargets []*types.Var
	var checkStmt func(s ast.Stmt)
	checkStmt = func(s ast.Stmt) {
		if !ok {
			return
		}
		switch st := s.(type) {
		case *ast.AssignStmt:
			if target, isAppend := selfAppendTarget(pass, st); isAppend {
				appendTargets = append(appendTargets, target)
				return
			}
			if !orderInsensitiveAssign(pass, st, rangeKeyIdent(rng)) {
				ok = false
			}
		case *ast.IncDecStmt:
			// n++ / n-- on an integer accumulator commutes.
			if !isIntExpr(pass, st.X) || !isAccumTarget(pass, st.X) {
				ok = false
			}
		case *ast.ExprStmt:
			// Only delete(m, k) is a permitted call.
			call, isCall := st.X.(*ast.CallExpr)
			if !isCall || !isBuiltin(pass, call, "delete") {
				ok = false
			}
		case *ast.IfStmt:
			if st.Init != nil {
				checkStmt(st.Init)
			}
			if !pureCond(pass, st.Cond) {
				ok = false
				return
			}
			checkStmt(st.Body)
			if st.Else != nil {
				checkStmt(st.Else)
			}
		case *ast.BlockStmt:
			for _, inner := range st.List {
				checkStmt(inner)
			}
		case *ast.ForStmt:
			// Nested loops are fine when their own machinery is pure and
			// their bodies contain only allowed effects.
			if st.Init != nil {
				checkStmt(st.Init)
			}
			if st.Cond != nil && !pureCond(pass, st.Cond) {
				ok = false
				return
			}
			if st.Post != nil {
				checkStmt(st.Post)
			}
			checkStmt(st.Body)
		case *ast.RangeStmt:
			// A nested range: the ranged expression must be pure; if it is
			// itself a map, the outer Inspect flags it independently.
			if !pureCond(pass, st.X) {
				ok = false
				return
			}
			checkStmt(st.Body)
		case *ast.BranchStmt:
			// continue is fine (skips an element); break/goto reintroduce
			// order dependence (which element stops the loop?).
			if st.Tok != token.CONTINUE {
				ok = false
			}
		case *ast.DeclStmt:
			gen, isGen := st.Decl.(*ast.GenDecl)
			if !isGen {
				ok = false
				return
			}
			for _, spec := range gen.Specs {
				vs, isVS := spec.(*ast.ValueSpec)
				if !isVS {
					continue
				}
				for _, v := range vs.Values {
					if !pureCond(pass, v) {
						ok = false
					}
				}
			}
		case *ast.EmptyStmt:
		default:
			ok = false
		}
	}
	checkStmt(rng.Body)
	if !ok {
		return false
	}
	for _, target := range appendTargets {
		if !sortedAfter(pass, enclosing, target, rng.End()) {
			return false
		}
	}
	return true
}

// selfAppendTarget recognizes `x = append(x, pureArgs...)` and returns
// x's variable.
func selfAppendTarget(pass *Pass, st *ast.AssignStmt) (*types.Var, bool) {
	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		return nil, false
	}
	if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
		return nil, false
	}
	lhs, ok := unparen(st.Lhs[0]).(*ast.Ident)
	if !ok {
		return nil, false
	}
	call, ok := unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok || !isBuiltin(pass, call, "append") || len(call.Args) < 2 {
		return nil, false
	}
	first, ok := unparen(call.Args[0]).(*ast.Ident)
	if !ok || first.Name != lhs.Name {
		return nil, false
	}
	for _, arg := range call.Args[1:] {
		if !pureCond(pass, arg) {
			return nil, false
		}
	}
	obj := identVar(pass, lhs)
	if obj == nil {
		return nil, false
	}
	return obj, true
}

func identVar(pass *Pass, id *ast.Ident) *types.Var {
	if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// sortedAfter reports whether a call into package sort referencing
// target appears after pos in the enclosing function body.
func sortedAfter(pass *Pass, enclosing *ast.BlockStmt, target *types.Var, pos token.Pos) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fnObj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fnObj.Pkg() == nil {
			return true
		}
		if p := fnObj.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			hit := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && identVar(pass, id) == target {
					hit = true
					return false
				}
				return true
			})
			if hit {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// rangeKeyIdent returns the range statement's key identifier, if any.
// The key is unique per iteration, so container writes indexed by it are
// disjoint across iterations.
func rangeKeyIdent(rng *ast.RangeStmt) *ast.Ident {
	if rng.Key == nil {
		return nil
	}
	id, ok := unparen(rng.Key).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return id
}

// orderInsensitiveAssign accepts map/set writes, slice writes indexed by
// the (unique) range key, and integer accumulation. keyIdent may be nil.
func orderInsensitiveAssign(pass *Pass, st *ast.AssignStmt, keyIdent *ast.Ident) bool {
	switch st.Tok {
	case token.DEFINE:
		// Defining per-iteration temporaries with pure initializers is
		// harmless: a fresh variable per element carries no cross-element
		// state. (Assigning to an outer variable with `=` does, and is
		// handled below.)
		for _, rhs := range st.Rhs {
			if !pureCond(pass, rhs) {
				return false
			}
		}
		for _, lhs := range st.Lhs {
			if _, isIdent := unparen(lhs).(*ast.Ident); !isIdent {
				return false
			}
		}
		return true
	case token.ASSIGN:
		// Every LHS must be a map index, a slice/array slot indexed by the
		// unique range key (disjoint writes), or blank; RHS must be pure.
		for _, lhs := range st.Lhs {
			if isBlank(lhs) {
				continue
			}
			idx, isIdx := lhs.(*ast.IndexExpr)
			if !isIdx {
				return false
			}
			tv, found := pass.TypesInfo.Types[idx.X]
			if !found {
				return false
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				continue
			}
			// Non-map container: the index must be exactly the range key.
			if keyIdent == nil {
				return false
			}
			idxID, isID := unparen(idx.Index).(*ast.Ident)
			if !isID || idxID.Name != keyIdent.Name {
				return false
			}
		}
		for _, rhs := range st.Rhs {
			if !pureCond(pass, rhs) {
				return false
			}
		}
		return true
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Commutative accumulation into one integer accumulator (variable,
		// field, or indexed matrix cell with pure indices). SUB_ASSIGN is
		// excluded: n -= x commutes over ints too, but pairing it with
		// saturation/clamping idioms is common enough that we make the
		// author say so.
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return false
		}
		return isAccumTarget(pass, st.Lhs[0]) && isIntExpr(pass, st.Lhs[0]) && pureCond(pass, st.Rhs[0])
	default:
		return false
	}
}

// isAccumTarget accepts accumulation targets: plain variables, field
// chains, and indexed locations with pure indices (m[i][j]++ commutes
// over ints wherever the cell lives).
func isAccumTarget(pass *Pass, e ast.Expr) bool {
	if idx, ok := unparen(e).(*ast.IndexExpr); ok {
		return isAccumTarget(pass, idx.X) && pureCond(pass, idx.Index)
	}
	return isSimpleTarget(e)
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// isSimpleTarget accepts an identifier or a field selector chain
// (st.Count, p.stats.n) as an accumulation target.
func isSimpleTarget(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name != "_"
	case *ast.SelectorExpr:
		return isSimpleTarget(x.X)
	case *ast.StarExpr:
		return isSimpleTarget(x.X)
	default:
		return false
	}
}

func isIntExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

// pureCond reports whether e is side-effect-free and order-independent:
// idents, selectors, indexing, len/cap, comparisons, arithmetic. Any
// other call is assumed impure.
func pureCond(pass *Pass, e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if !isBuiltin(pass, x, "len") && !isBuiltin(pass, x, "cap") {
				pure = false
				return false
			}
		case *ast.FuncLit:
			pure = false
			return false
		}
		return true
	})
	return pure
}

func isBuiltin(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	_, isBuiltin := obj.(*types.Builtin)
	return isBuiltin
}
