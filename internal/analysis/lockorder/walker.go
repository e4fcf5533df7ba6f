package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"aarc/internal/analysis"
)

// Held is one sync mutex held at a program point.
type Held struct {
	// ID is the declaration-site identity lockorder keys its graph on:
	// "pkgpath.(Type).field" or "pkgpath.var"; "" for a function-local
	// or unresolvable mutex, which cannot take part in a cycle.
	ID string
	// Expr is the receiver as written ("s.mu"), parentheses stripped,
	// for messages.
	Expr string
}

// Walker threads the list of held mutexes through a function body in
// source order; it is the one lock-set interpreter behind lockorder
// and lockscope. Lock/RLock (deferred or not) adds a lock, Unlock and
// RUnlock remove every held lock with the same ID (or, under ByExpr,
// the same Expr), and a deferred unlock keeps it held to the end of
// the function. Branch bodies get copies: a lock released on one path
// is conservatively still held on the other. A function literal built
// under a lock is walked with that lock held (a literal built under a
// lock is overwhelmingly run under it: sort.Slice callbacks, inline
// wrappers); a go statement's literal runs on a fresh goroutine and is
// walked detached, starting from no locks.
type Walker struct {
	Info *types.Info
	// Acquire, if set, sees every lock acquisition with the locks held
	// just before it. detached is true inside a go statement's literal.
	// Callbacks must copy held to keep it.
	Acquire func(lock Held, pos token.Pos, held []Held, detached bool)
	// Call, if set, sees every call other than a lock operation with
	// the locks held at it.
	Call func(call *ast.CallExpr, held []Held, detached bool)
	// ByExpr releases locks by receiver text rather than by ID, so
	// unlocking one instance of a field leaves another held.
	ByExpr bool

	detached bool
}

// Walk interprets body, starting with no locks held.
func (w *Walker) Walk(body *ast.BlockStmt) { w.stmts(body.List, nil) }

func (w *Walker) stmts(list []ast.Stmt, held []Held) []Held {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

func copyHeld(held []Held) []Held {
	return append([]Held(nil), held...)
}

func (w *Walker) without(held []Held, lock Held) []Held {
	out := held[:0:0]
	for _, h := range held {
		same := h.ID == lock.ID
		if w.ByExpr {
			same = h.Expr == lock.Expr
		}
		if !same {
			out = append(out, h)
		}
	}
	return out
}

func (w *Walker) stmt(s ast.Stmt, held []Held) []Held {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if lock, dir := w.lockCall(call); dir != 0 {
				if dir > 0 {
					w.acquire(lock, call.Pos(), held)
					return append(held, lock)
				}
				return w.without(held, lock)
			}
		}
		w.scan(s.X, held)
	case *ast.DeferStmt:
		if lock, dir := w.lockCall(s.Call); dir != 0 {
			if dir > 0 {
				w.acquire(lock, s.Call.Pos(), held)
				return append(held, lock)
			}
			return held // defer unlock: held until return
		}
		w.scan(s.Call, held)
	case *ast.GoStmt:
		// The arguments are evaluated on the spawning goroutine.
		for _, arg := range s.Call.Args {
			w.scan(arg, held)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			saved := w.detached
			w.detached = true
			w.stmts(lit.Body.List, nil)
			w.detached = saved
		}
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		w.scan(s.Cond, held)
		w.stmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scan(s.Cond, held)
		}
		w.stmts(s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		w.scan(s.X, held)
		w.stmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scan(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.scan(rhs, held)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scan(r, held)
		}
	default:
		// DeclStmt, SendStmt, IncDec, Branch...: scan for calls.
		w.scan(s, held)
	}
	return held
}

func (w *Walker) acquire(lock Held, pos token.Pos, held []Held) {
	if w.Acquire != nil {
		w.Acquire(lock, pos, held, w.detached)
	}
}

// scan reports the calls in a node evaluated with held locks and walks
// function literals with a copy of the same held list.
func (w *Walker) scan(n ast.Node, held []Held) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			w.stmts(x.Body.List, copyHeld(held))
			return false
		case *ast.CallExpr:
			if _, dir := w.lockCall(x); dir == 0 && w.Call != nil {
				w.Call(x, held, w.detached)
			}
		}
		return true
	})
}

// lockCall classifies Lock/RLock (+1) and Unlock/RUnlock (-1) calls on
// sync mutexes and names the receiver; dir 0 for everything else.
func (w *Walker) lockCall(call *ast.CallExpr) (lock Held, dir int) {
	fn := analysis.FuncOf(w.Info, call)
	if fn == nil || fn.Signature().Recv() == nil {
		return Held{}, 0
	}
	if pkg := fn.Pkg(); pkg == nil || pkg.Path() != "sync" {
		return Held{}, 0
	}
	switch fn.Name() {
	case "Lock", "RLock":
		dir = +1
	case "Unlock", "RUnlock":
		dir = -1
	default:
		return Held{}, 0
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return Held{}, 0
	}
	return Held{ID: w.lockIdent(sel.X), Expr: types.ExprString(ast.Unparen(sel.X))}, dir
}

// lockIdent names the mutex expression by declaration site.
func (w *Walker) lockIdent(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		// A field: name it by the owning named type.
		if selInfo, ok := w.Info.Selections[e]; ok {
			t := selInfo.Recv()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return fmt.Sprintf("%s.(%s).%s", named.Obj().Pkg().Path(), named.Obj().Name(), e.Sel.Name)
			}
		}
		// Qualified package-level var (pkg.mu).
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := w.Info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := w.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Path() + "." + v.Name()
				}
			}
		}
	case *ast.Ident:
		if v, ok := w.Info.Uses[e].(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
		}
	case *ast.IndexExpr:
		return w.lockIdent(e.X)
	}
	return "" // local or unresolvable: cannot participate in a cycle
}
