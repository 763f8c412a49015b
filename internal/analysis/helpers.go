package analysis

import (
	"go/ast"
	"go/types"
)

// calleeFunc resolves the static *types.Func a call targets, or nil for
// dynamic calls (func-valued variables, fields, parameters), conversions
// and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fn].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fn.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// pkgPathOf returns the import path of the package declaring fn, or "".
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// recvTypeName returns the bare name of fn's receiver's named type
// ("*esp.OutboundSA" -> "OutboundSA"), or "" for plain functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// rootChain reduces an expression to the access chain it reads from:
// unwrapping parens, slicing, indexing and address-of down to a dotted
// path of identifiers ("b", "s.buf"). It returns the chain as a string
// plus the base identifier's object, or ("", nil) when the expression
// does not bottom out in an identifier (calls, literals, nil).
//
// Two slice expressions can share a backing array only if their chains
// agree on the same base object — the approximation the appendalias
// check is built on.
func rootChain(info *types.Info, e ast.Expr) (string, types.Object) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return rootChain(info, x.X)
	case *ast.SliceExpr:
		return rootChain(info, x.X)
	case *ast.IndexExpr:
		return rootChain(info, x.X)
	case *ast.StarExpr:
		return rootChain(info, x.X)
	case *ast.UnaryExpr:
		return rootChain(info, x.X)
	case *ast.SelectorExpr:
		chain, base := rootChain(info, x.X)
		if base == nil {
			return "", nil
		}
		return chain + "." + x.Sel.Name, base
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return "", nil
		}
		return x.Name, obj
	}
	return "", nil
}

// sameRoot reports whether a and b resolve to the same access chain on
// the same base object (so their backing arrays may alias).
func sameRoot(info *types.Info, a, b ast.Expr) bool {
	ca, oa := rootChain(info, a)
	cb, ob := rootChain(info, b)
	return oa != nil && oa == ob && ca == cb
}

// isBuiltinCall reports whether call invokes the named builtin
// (append, make, copy, ...). Builtin identifiers resolve to
// *types.Builtin objects in Uses, or to nil for make/new in some
// positions.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		return true
	}
	_, isB := obj.(*types.Builtin)
	return isB
}

// isByteSliceType reports whether t's underlying type is []byte.
func isByteSliceType(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// inspectSkipFuncLit walks n in source order, not descending into
// function literals.
func inspectSkipFuncLit(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		fn(m)
		_, isLit := m.(*ast.FuncLit)
		return !isLit
	})
}
