// Package lockscope checks the serving layer's lock-hygiene invariant:
// no searching, store I/O, event publishing, or workflow evaluation
// while a mutex is held. The two deadlock classes this encodes were
// found the hard way — a batch run attaching to a singleflight while
// the coalescer's mutex was held (PR 5), and an event hook publishing
// into a bounded bus from under a service lock (PR 7); both only
// surfaced under load. The one sanctioned exception is a mutex that
// *owns* the callee — the runner-pool shards, where the shard mutex is
// exactly what makes a non-thread-safe Runner usable — and such sites
// carry an //aarc:locked <reason> marker.
//
// The analysis is a reporting pass over lockorder.Walker, the lock-set
// interpreter lockorder builds its graph from: the walker tracks
// mu.Lock()/RLock() ... mu.Unlock()/RUnlock() pairs (including the
// defer-unlock idiom) through straight-line code, branches and function
// literals, and lockscope flags target calls made anywhere a lock is
// statically held, naming the held receiver as written. Bodies of `go`
// statements run on their own goroutine and start with no locks held.
package lockscope

import (
	"go/ast"

	"aarc/internal/analysis"
	"aarc/internal/analysis/lockorder"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockscope",
	Doc:  "flag search/store/publish/evaluate calls made while a mutex is held",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	w := &lockorder.Walker{
		Info:   pass.TypesInfo,
		ByExpr: true,
		Call: func(call *ast.CallExpr, held []lockorder.Held, _ bool) {
			if len(held) > 0 {
				checkTarget(pass, call, held)
			}
		},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				w.Walk(fd.Body)
			}
		}
	}
	return nil
}

// checkTarget reports a diagnostic if call is one of the forbidden
// operations and no //aarc:locked waiver covers it.
func checkTarget(pass *analysis.Pass, call *ast.CallExpr, held []lockorder.Held) {
	fn := analysis.FuncOf(pass.TypesInfo, call)
	if fn == nil || fn.Signature().Recv() == nil {
		return
	}
	recvPkg := ""
	if p := fn.Pkg(); p != nil {
		recvPkg = p.Name()
	}
	var what string
	switch fn.Name() {
	case "Search":
		what = "a search"
	case "Publish":
		if recvPkg != "event" {
			return
		}
		what = "an event publish"
	case "Get", "Put", "Delete", "Keys", "Warm":
		if recvPkg != "store" {
			return
		}
		what = "store I/O"
	case "Evaluate", "MeanEvaluate":
		if recvPkg != "workflow" {
			return
		}
		what = "a workflow evaluation"
	default:
		return
	}
	if m, ok := pass.Markers().At(pass.Fset, call.Pos(), "locked"); ok {
		if m.Arg == "" {
			pass.Reportf(call.Pos(), "//aarc:locked marker needs a reason")
		}
		return
	}
	pass.Reportf(call.Pos(), "%s while holding mutex %s can deadlock or serialize the serving path; move it outside the critical section or mark //aarc:locked <reason>", what, heldNames(held))
}

// heldNames names the alphabetically first held receiver; there is
// almost always exactly one.
func heldNames(held []lockorder.Held) string {
	best, others := held[0].Expr, false
	for _, h := range held[1:] {
		if h.Expr != best {
			others = true
			best = min(best, h.Expr)
		}
	}
	if others {
		return best + " (and others)"
	}
	return best
}
