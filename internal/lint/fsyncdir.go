package lint

import (
	"go/ast"
	"strings"
)

// AnalyzerFsyncDir polices the atomic-install idiom in the durable
// packages (journal, store): a file becomes durable only when the
// tmp-write + fsync + os.Rename sequence ends with an fsync of the
// parent directory — the rename itself lives in the directory entry,
// and a crash before the directory block reaches disk silently undoes
// it. The analyzer flags any os.Rename in a durable package that is
// not followed, later in the same function frame, by a call whose
// name marks the directory sync (the project convention is syncDir;
// any callee whose name contains "syncdir" counts, case-insensitive).
// Frames pair separately: a function literal is its own frame, so a
// rename in a literal needs the sync in that literal. It is a query
// over the calls the facts walker records per frame.
var AnalyzerFsyncDir = &Analyzer{
	Name:      "fsyncdir",
	Doc:       "os.Rename on a durability path without a following parent-directory fsync",
	RunModule: queryFsyncDir,
}

func queryFsyncDir(mp *ModulePass) {
	for _, n := range mp.Facts.walked {
		if !mp.Config.Durable(n.Pkg) {
			continue
		}
		pass := &Pass{Pkg: n.Pkg}
		var renames []frameCall
		syncs := make(map[*frame][]*ast.CallExpr)
		for _, fc := range n.calls {
			if fc.frame == nil {
				continue // package-level initializer, not a frame
			}
			if pkgPath, name, ok := pkgFuncCall(pass, n.File, fc.call); ok && pkgPath == "os" && name == "Rename" {
				renames = append(renames, fc)
			} else if isDirSyncCall(fc.call) {
				syncs[fc.frame] = append(syncs[fc.frame], fc.call)
			}
		}
		for _, r := range renames {
			followed := false
			for _, s := range syncs[r.frame] {
				if s.Pos() > r.call.End() {
					followed = true
					break
				}
			}
			if !followed {
				mp.Report(r.call.Pos(), nil,
					"os.Rename on the durability path is not followed by a parent-directory fsync: call syncDir(dir) after the rename, or the entry can vanish on crash")
			}
		}
	}
}

// isDirSyncCall matches the directory-sync convention by callee name:
// syncDir, fsyncDir, SyncDir, d.syncDir, ...
func isDirSyncCall(call *ast.CallExpr) bool {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	return strings.Contains(strings.ToLower(name), "syncdir")
}
