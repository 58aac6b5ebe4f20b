package lint

import (
	"go/ast"
)

// AnalyzerNondetFlow tracks nondeterminism taint interprocedurally:
// values derived from unseeded math/rand, time.Now/Since or map
// iteration order must never reach a determinism sink — the digest
// functions, store keys and journal records that serial-vs-parallel
// equivalence, journal replay and the perfreg baseline key on.
// The rand/timenow/maporder analyzers flag the sources themselves in
// the generation packages; this analyzer covers
// the other direction: a tainted value produced anywhere (a helper in
// cmd/, a cluster handler) flowing through returns and assignments
// into a sink. Config.NondetSinks names the sinks and which argument
// positions matter.
var AnalyzerNondetFlow = &Analyzer{
	Name:      "nondetflow",
	Doc:       "nondeterminism taint (rand, time.Now, map order) reaching a determinism sink",
	RunModule: runNondetFlow,
}

func runNondetFlow(mp *ModulePass) {
	if len(mp.Config.NondetSinks) == 0 {
		return
	}
	for _, n := range mp.Facts.Graph.Nodes {
		pass := &Pass{Pkg: n.Pkg}
		tc := &taintCtx{facts: mp.Facts, node: n, pass: pass, env: n.taintedVars}
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			call, isCall := node.(*ast.CallExpr)
			if !isCall {
				return true
			}
			full := ""
			if callee := mp.Facts.Graph.resolveCallee(n.Pkg, call); callee != nil {
				full = string(callee.Key)
			} else {
				full = calleeFullName(pass, call)
			}
			if full == "" {
				return true
			}
			argIdx, isSink := mp.Config.NondetSinks[full]
			if !isSink {
				return true
			}
			check := func(i int) {
				if i >= len(call.Args) {
					return
				}
				m := tc.mark(call.Args[i])
				if !m.src {
					return
				}
				chain := []ChainFrame{mp.Facts.frame(call.Pos(), n.Key, "passes tainted value to "+shortKey(FuncKey(full)))}
				chain = append(chain, mp.Facts.markChain(n, m)...)
				mp.Report(call.Args[i].Pos(), chain,
					"nondeterministic value (%s) reaches determinism sink %s (argument %d); derive it from the spec or a seeded source",
					m.why, shortKey(FuncKey(full)), i)
			}
			if len(argIdx) == 0 {
				for i := range call.Args {
					check(i)
				}
			} else {
				for _, i := range argIdx {
					check(i)
				}
			}
			return true
		})
	}
}
