package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerGoFunc enforces goroutine hygiene in the long-lived
// packages (engine, events, journal, retry, obs): every `go`
// statement must be cancelable or tracked — the spawned function
// takes or captures a context.Context, or its lifetime is accounted
// for by a sync.WaitGroup (Add before the spawn / Done inside the
// body). Untracked goroutines in daemon-lifetime code are how
// shutdown deadlocks and goroutine leaks start; the engine's own
// chaos suite asserts zero leaked goroutines after Shutdown. It is a
// query over the go statements the facts walker records.
var AnalyzerGoFunc = &Analyzer{
	Name:      "gofunc",
	Doc:       "goroutine in a long-lived package that is neither context-aware nor WaitGroup-tracked",
	RunModule: queryGoFunc,
}

func queryGoFunc(mp *ModulePass) {
	for _, n := range mp.Facts.walked {
		if !mp.Config.LongLived(n.Pkg) {
			continue
		}
		pass := &Pass{Pkg: n.Pkg}
		for _, gs := range n.goStmts {
			if !goStmtTracked(mp.Facts.Graph, pass, gs) {
				mp.Report(gs.Pos(), nil,
					"goroutine is neither context-aware nor WaitGroup-tracked: take/capture a context.Context or pair it with wg.Add/wg.Done so shutdown can account for it")
			}
		}
	}
}

func goStmtTracked(g *CallGraph, pass *Pass, gs *ast.GoStmt) bool {
	// An argument of type context.Context makes the goroutine
	// cancelable regardless of what is being called.
	for _, arg := range gs.Call.Args {
		if isContextType(pass.TypeOf(arg)) {
			return true
		}
	}
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		for _, field := range fun.Type.Params.List {
			if isContextType(pass.TypeOf(field.Type)) {
				return true
			}
		}
		return bodyTracked(pass, fun.Body)
	default:
		// Named function or method: cancelable if its signature takes
		// a context (the caller must then be passing one — covered by
		// the argument scan above for direct calls; bound methods and
		// conversions fall through to the signature check).
		if sig, isSig := pass.TypeOf(gs.Call.Fun).(*types.Signature); isSig {
			for i := 0; i < sig.Params().Len(); i++ {
				if isContextType(sig.Params().At(i).Type()) {
					return true
				}
			}
		}
		// Same-package callee: tracked if its body is (`go e.worker()`
		// where worker starts with `defer e.wg.Done()`).
		if callee := g.resolveCallee(pass.Pkg, gs.Call); callee != nil && callee.Pkg == pass.Pkg {
			return bodyTracked(pass, callee.Decl.Body)
		}
	}
	return false
}

// bodyTracked reports whether the goroutine body references a
// context.Context value (captured ctx: select on ctx.Done(), passes
// it on) or is WaitGroup-tracked (calls Done/Add on a
// sync.WaitGroup).
func bodyTracked(pass *Pass, body *ast.BlockStmt) bool {
	tracked := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tracked {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := pass.ObjectOf(n); obj != nil && isContextType(obj.Type()) {
				tracked = true
				return false
			}
		case *ast.CallExpr:
			if _, name, ok := methodCall(pass, n); ok && (name == "Done" || name == "Add") &&
				recvTypeIs(pass, n, "sync.WaitGroup") {
				tracked = true
				return false
			}
		}
		return true
	})
	return tracked
}

func isContextType(t types.Type) bool {
	return namedType(t) == "context.Context"
}
