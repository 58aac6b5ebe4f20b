package lint

import "strings"

// AnalyzerTracePropagation polices context propagation on the
// cluster's outbound requests: every backend-bound HTTP request must
// carry the W3C traceparent and the forwarded X-Request-ID, and the
// only place those headers are injected is the coordinator's single
// request constructor. The analyzer therefore flags any call to
// http.NewRequest / http.NewRequestWithContext in a cluster package
// that is not inside that constructor (the project convention is
// newOutboundRequest; any function whose name contains
// "outboundrequest" counts, case-insensitive). A raw NewRequest
// elsewhere ships a request with no trace identity, and the backend's
// spans silently detach from the caller's trace. It is a query over
// the calls the facts walker records per function declaration
// (literals nested in it included).
var AnalyzerTracePropagation = &Analyzer{
	Name:      "tracepropagation",
	Doc:       "raw http.NewRequest in a cluster package outside the trace-header-injecting helper",
	RunModule: queryTracePropagation,
}

func queryTracePropagation(mp *ModulePass) {
	for _, n := range mp.Facts.walked {
		if !mp.Config.Cluster(n.Pkg) || n.Decl == nil || isOutboundHelper(n.Decl.Name.Name) {
			continue // package-level initializers and the one sanctioned construction site
		}
		pass := &Pass{Pkg: n.Pkg}
		for _, fc := range n.calls {
			pkgPath, name, ok := pkgFuncCall(pass, n.File, fc.call)
			if ok && pkgPath == "net/http" && strings.HasPrefix(name, "NewRequest") {
				mp.Report(fc.call.Pos(), nil,
					"http.%s bypasses the outbound-request helper: build backend requests with newOutboundRequest so they carry traceparent and X-Request-ID", name)
			}
		}
	}
}

// isOutboundHelper matches the sanctioned constructor by name
// convention: newOutboundRequest, NewOutboundRequest, ...
func isOutboundHelper(name string) bool {
	return strings.Contains(strings.ToLower(name), "outboundrequest")
}
