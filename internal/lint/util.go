package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Package-set membership is decided by path segments, not exact strings,
// so "repro/internal/overlay/chord" matches the "internal/overlay" entry
// and analysistest fixtures under testdata/src/repro/internal/… land in
// the same scope as the real tree without the analyzers knowing the
// module path.

// pathInSet reports whether pkgPath contains one of the entries as a
// consecutive, "/"-delimited segment run.
func pathInSet(pkgPath string, set []string) bool {
	for _, entry := range set {
		if pkgPath == entry ||
			strings.HasPrefix(pkgPath, entry+"/") ||
			strings.HasSuffix(pkgPath, "/"+entry) ||
			strings.Contains(pkgPath, "/"+entry+"/") {
			return true
		}
	}
	return false
}

// calleeFunc resolves the called function or method of a call expression,
// or nil for conversions, builtins, and calls of function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcPkgPath returns the import path of the package declaring fn, or ""
// for builtins and universe functions.
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isBuiltin reports whether the call invokes the named universe builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// isFloaty reports whether t is a floating-point type or a slice/array/map
// carrying one — the operand shapes whose default formatting width varies
// with the value.
func isFloaty(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsFloat != 0
	case *types.Slice:
		return isFloaty(u.Elem())
	case *types.Array:
		return isFloaty(u.Elem())
	case *types.Map:
		return isFloaty(u.Elem())
	case *types.Pointer:
		return isFloaty(u.Elem())
	}
	return false
}
