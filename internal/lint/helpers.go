package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// pkgFuncCall resolves call to a package-level function, returning
// the defining package's import path and the function name. It
// prefers type information and falls back to the file's import table
// when the checker could not resolve the callee (partial loads), so
// determinism findings survive type errors elsewhere in the package.
func pkgFuncCall(pass *Pass, file *ast.File, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	se, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	if obj := pass.ObjectOf(se.Sel); obj != nil {
		fn, isFn := obj.(*types.Func)
		if !isFn || fn.Pkg() == nil {
			return "", "", false
		}
		if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
			return "", "", false // method, not package-level
		}
		return fn.Pkg().Path(), fn.Name(), true
	}
	// Fallback: syntactic match against the import table.
	id, isIdent := se.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	if path, found := importPathFor(file, id.Name); found {
		return path, se.Sel.Name, true
	}
	return "", "", false
}

// importPathFor maps a package qualifier used in file to its import
// path ("rand" -> "math/rand"), honoring aliases.
func importPathFor(file *ast.File, qualifier string) (string, bool) {
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := ""
		if imp.Name != nil {
			name = imp.Name.Name
			if name == "_" || name == "." {
				continue
			}
		} else {
			name = path
			if i := strings.LastIndex(name, "/"); i >= 0 {
				name = name[i+1:]
			}
		}
		if name == qualifier {
			return path, true
		}
	}
	return "", false
}

// methodCall decomposes call into (receiver expr, method name). ok is
// false for anything that is not x.M(...) with a non-package x.
func methodCall(pass *Pass, call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	se, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	// x.M where x denotes an imported package is a package function.
	if id, isIdent := se.X.(*ast.Ident); isIdent {
		if obj := pass.ObjectOf(id); obj != nil {
			if _, isPkg := obj.(*types.PkgName); isPkg {
				return nil, "", false
			}
		}
	}
	return se.X, se.Sel.Name, true
}

// namedType returns the path.Name of t's core named type, unwrapping
// pointers ("sync.Mutex", "strings.Builder"), or "".
func namedType(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvTypeIs reports whether the method call receiver has the named
// type (e.g. "sync.WaitGroup"), either directly or through an
// embedded field (resolved via the selection).
func recvTypeIs(pass *Pass, call *ast.CallExpr, want string) bool {
	se, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || pass.Pkg.Info == nil {
		return false
	}
	if sel, found := pass.Pkg.Info.Selections[se]; found {
		if fn, isFn := sel.Obj().(*types.Func); isFn {
			if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
				if namedType(sig.Recv().Type()) == want {
					return true
				}
			}
		}
	}
	return namedType(pass.TypeOf(se.X)) == want
}

// exprString renders a (small) expression for receiver identity and
// messages: "e.mu", "c.cache.mu". Falls back to "?" on exotic forms.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return exprString(e.X)
	case *ast.UnaryExpr:
		return exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	}
	return "?"
}

// containsIdentObj reports whether the subtree contains an identifier
// resolving to obj (used to find "the sink is sorted later").
func containsIdentObj(pass *Pass, root ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, isIdent := n.(*ast.Ident); isIdent {
			if pass.ObjectOf(id) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
