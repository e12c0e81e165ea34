package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkFloatEq is the fence's float-equality engine. It flags `==` and
// `!=` between floating-point expressions under root. Exact float
// equality makes tie-breaking depend on rounding noise: two mapping
// candidates whose costs differ only in the last ulp compare
// differently across architectures and evaluation orders, which breaks
// the byte-identical-tables guarantee. Use an epsilon comparison or the
// deterministic tie-break helpers.
//
// Allowed without justification:
//   - comparison against an exact constant sentinel: literal 0 (the
//     "unset" idiom), or any compile-time float constant (e.g. -1 flags,
//     math.Inf(...) is a call and so NOT exempt),
//   - the NaN self-check x != x (and x == x),
//   - comparisons where either operand is a constant expression.
//
// Justify a deliberate exact comparison with `//lint:exact <why>`.
func checkFloatEq(pass *Pass, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
			return true
		}
		if !isFloatExpr(pass, bin.X) || !isFloatExpr(pass, bin.Y) {
			return true
		}
		if isConstExpr(pass, bin.X) || isConstExpr(pass, bin.Y) {
			return true // sentinel comparison against a compile-time constant
		}
		if sameIdentChain(bin.X, bin.Y) {
			return true // NaN self-check
		}
		pass.Reportf(bin.Pos(),
			"compare with an epsilon (math.Abs(a-b) < eps) or use the tie-break helpers; add `//lint:exact <why>` only for genuinely exact values",
			"exact %s between float expressions in cost code is order/rounding sensitive", bin.Op)
		return true
	})
}

func isFloatExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

func isConstExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// sameIdentChain reports whether two expressions are the identical
// ident/selector/index chain (textually structural, not aliasing-aware):
// x == x, a.b != a.b, v[i] != v[i].
func sameIdentChain(a, b ast.Expr) bool {
	a, b = unparen(a), unparen(b)
	switch x := a.(type) {
	case *ast.Ident:
		y, ok := b.(*ast.Ident)
		return ok && x.Name == y.Name
	case *ast.SelectorExpr:
		y, ok := b.(*ast.SelectorExpr)
		return ok && x.Sel.Name == y.Sel.Name && sameIdentChain(x.X, y.X)
	case *ast.IndexExpr:
		y, ok := b.(*ast.IndexExpr)
		return ok && sameIdentChain(x.X, y.X) && sameIdentChain(x.Index, y.Index)
	case *ast.BasicLit:
		y, ok := b.(*ast.BasicLit)
		return ok && x.Kind == y.Kind && x.Value == y.Value
	default:
		return false
	}
}
