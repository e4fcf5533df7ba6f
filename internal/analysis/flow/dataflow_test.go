package flow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// intLattice is the chain lattice over ints ordered by ≤ with an
// explicit top: bottom ⊏ 0 ⊏ 1 ⊏ 2 ⊏ ... ⊏ top, Join = max. The
// ascending chain is infinite, so a transfer function that increments
// around a loop back edge never converges without widening — exactly
// what the termination test needs.
//
// Elements: nil = bottom, {v, false} = the value v, {_, true} = top.
type intVal struct {
	v   int
	top bool
}

type intLattice struct{}

func (intLattice) Bottom() *intVal { return nil }

func (intLattice) Join(a, b *intVal) *intVal {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.top || b.top:
		return &intVal{top: true}
	case a.v >= b.v:
		return a
	default:
		return b
	}
}

func (intLattice) Equal(a, b *intVal) bool {
	switch {
	case a == nil || b == nil:
		return a == b
	default:
		return a.top == b.top && (a.top || a.v == b.v)
	}
}

// loopGraph builds the canonical counting loop:
//
//	entry -> head; head -> body, done; body -> head
//
// whose body transfer increments the counter — a non-converging chain
// without widening.
func loopGraph(t *testing.T) *Graph {
	t.Helper()
	return New(parseBody(t, `for cond() {
	inc()
}`))
}

// TestFixpointWidening is the ISSUE's termination test: a loop over a
// lattice with an infinite ascending chain must (a) blow MaxIter
// without widening, flagged by Converged=false, and (b) terminate at
// top with a widening operator.
func TestFixpointWidening(t *testing.T) {
	g := loopGraph(t)

	transfer := func(b *Block, in *intVal) *intVal {
		if b.Kind == "for.body" && in != nil && !in.top {
			return &intVal{v: in.v + 1} // the ascending chain
		}
		return in
	}

	t.Run("without-widening-hits-MaxIter", func(t *testing.T) {
		res := Analysis[*intVal]{
			Lattice:  intLattice{},
			Transfer: transfer,
			Entry:    &intVal{v: 0},
			MaxIter:  100,
		}.Forward(g)
		if res.Converged {
			t.Fatalf("expected non-convergence without widening; head in-state %+v after %d iterations",
				res.In[2], res.Iterations)
		}
		if res.Iterations < 100 {
			t.Fatalf("stopped after %d iterations, want MaxIter=100 visits", res.Iterations)
		}
	})

	t.Run("widening-terminates-at-top", func(t *testing.T) {
		res := Analysis[*intVal]{
			Lattice:  intLattice{},
			Transfer: transfer,
			Entry:    &intVal{v: 0},
			MaxIter:  100,
			// Standard widening: any strictly increasing revisit jumps
			// straight to top.
			Widen: func(prev, next *intVal) *intVal {
				if prev == nil || (intLattice{}).Equal(prev, next) {
					return next
				}
				return &intVal{top: true}
			},
		}.Forward(g)
		if !res.Converged {
			t.Fatalf("widened analysis did not converge in %d iterations", res.Iterations)
		}
		// The loop head's in-state must have been widened to top: the
		// counter is 0 on entry and k+1 around the back edge.
		head := res.In[2]
		if head == nil || !head.top {
			t.Fatalf("loop head in-state = %+v, want top", head)
		}
		// The loop-done block sees the widened state too.
		done := res.In[4]
		if done == nil || !done.top {
			t.Fatalf("for.done in-state = %+v, want top", done)
		}
	})
}

// TestFixpointBranchJoin checks the basic join: the merge point takes
// the least upper bound of the branch out-states.
func TestFixpointBranchJoin(t *testing.T) {
	g := New(parseBody(t, `if c() {
	a()
} else {
	b()
}
after()`))

	res := Analysis[*intVal]{
		Lattice: intLattice{},
		Transfer: func(b *Block, in *intVal) *intVal {
			switch b.Kind {
			case "if.then":
				return &intVal{v: 7}
			case "if.else":
				return &intVal{v: 8}
			}
			return in
		},
		Entry: &intVal{v: 0},
	}.Forward(g)
	if !res.Converged {
		t.Fatal("trivial CFG did not converge")
	}
	// if.done joins {7} and {8} → max, {8}.
	join := res.In[3]
	if join == nil || join.top || join.v != 8 {
		t.Fatalf("join of branch states = %+v, want {8}", join)
	}
}

// TestEdgeRefinement checks the Edge hook: the true edge of the branch
// refines the state, the false edge keeps it.
func TestEdgeRefinement(t *testing.T) {
	g := New(parseBody(t, `if c() {
	a()
}
after()`))

	res := Analysis[*intVal]{
		Lattice:  intLattice{},
		Transfer: func(b *Block, in *intVal) *intVal { return in },
		Edge: func(from, to *Block, out *intVal) *intVal {
			if from.Cond != nil && len(from.Succs) == 2 && from.Succs[0] == to {
				return &intVal{v: 1} // "condition known true" refinement
			}
			return out
		},
		Entry: &intVal{v: 0},
	}.Forward(g)
	then := res.In[2]
	if then == nil || then.top || then.v != 1 {
		t.Fatalf("true-edge state = %+v, want {1}", then)
	}
	// if.done joins the refined then-state {1} with the false-edge
	// entry state {0} → {1}.
	done := res.In[3]
	if done == nil || done.top || done.v != 1 {
		t.Fatalf("post-if state = %+v, want {1}", done)
	}
}

// typecheck parses and type-checks one file, returning what
// BuildCallGraph needs.
func typecheck(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, f, pkg, info
}

func TestCallGraph(t *testing.T) {
	_, f, _, info := typecheck(t, `package p

type T struct{}

func (t *T) m() { helper() }

func helper() {}

func root() {
	var t T
	t.m()
	go spawned()
	go func() { inLit() }()
}

func spawned() {}
func inLit()   {}
`)
	g := BuildCallGraph([]*ast.File{f}, info)

	root := g.Nodes["p.root"]
	if root == nil {
		t.Fatalf("no node for p.root; have %v", g.SortedNames())
	}
	byName := map[string]Call{}
	for _, c := range root.Calls {
		byName[c.Callee] = c
	}
	if _, ok := byName["p.(T).m"]; !ok {
		t.Errorf("root → (T).m edge missing; calls=%v", root.Calls)
	}
	if c, ok := byName["p.spawned"]; !ok || !c.InGo {
		t.Errorf("go spawned(): edge missing or not InGo (%+v)", c)
	}
	if c, ok := byName["p.inLit"]; !ok || !c.InGo {
		t.Errorf("call inside go func(){}: edge missing or not InGo (%+v)", c)
	}

	// Reachability: root reaches helper through (T).m.
	reach := g.Reachable([]string{"p.root"}, nil)
	if !reach["p.helper"] {
		t.Errorf("p.helper not reachable from p.root: %v", reach)
	}

	// extern hook: an unknown leaf expands through the callback.
	reach = g.Reachable([]string{"q.external"}, func(name string) []string {
		if name == "q.external" {
			return []string{"q.deeper"}
		}
		return nil
	})
	if !reach["q.deeper"] {
		t.Errorf("extern expansion missed q.deeper: %v", reach)
	}
}
