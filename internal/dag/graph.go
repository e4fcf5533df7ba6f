// Package dag implements the weighted directed-acyclic-graph substrate the
// Graph-Centric Scheduler operates on: construction and validation of
// workflow DAGs, topological ordering, critical-path extraction on
// node-weighted graphs, detour sub-path enumeration, and the runtime-sum
// window computation of Algorithm 1.
package dag

import (
	"errors"
	"fmt"
	"sort"
)

// Common construction and query errors.
var (
	ErrDuplicateNode = errors.New("dag: duplicate node")
	ErrUnknownNode   = errors.New("dag: unknown node")
	ErrSelfLoop      = errors.New("dag: self loop")
	ErrDuplicateEdge = errors.New("dag: duplicate edge")
	ErrCycle         = errors.New("dag: graph contains a cycle")
	ErrEmpty         = errors.New("dag: graph is empty")
)

// Graph is a mutable DAG with string node IDs. Node weights are supplied
// externally (as measured runtimes) when querying, so the same topology can
// be re-weighted between profiling rounds without rebuilding.
type Graph struct {
	order []string // node insertion order, for deterministic iteration
	index map[string]int
	succ  map[string][]string
	pred  map[string][]string
	edges int
}

// New returns an empty graph.
func New() *Graph {
	return NewWithCapacity(0)
}

// NewWithCapacity returns an empty graph with internal maps and slices
// pre-sized for n nodes, avoiding incremental rehashing when the final size
// is known up front (10k-node synthetic workloads).
func NewWithCapacity(n int) *Graph {
	return &Graph{
		order: make([]string, 0, n),
		index: make(map[string]int, n),
		succ:  make(map[string][]string, n),
		pred:  make(map[string][]string, n),
	}
}

// AddNode inserts a node. Adding an existing ID returns ErrDuplicateNode.
func (g *Graph) AddNode(id string) error {
	if id == "" {
		return errors.New("dag: empty node id")
	}
	if _, ok := g.index[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}
	g.index[id] = len(g.order)
	g.order = append(g.order, id)
	return nil
}

// MustAddNode is AddNode that panics on error; intended for static workflow
// definitions whose shape is fixed at compile time.
func (g *Graph) MustAddNode(id string) {
	if err := g.AddNode(id); err != nil {
		panic(err)
	}
}

// AddEdge inserts a directed edge from → to. Both endpoints must exist.
func (g *Graph) AddEdge(from, to string) error {
	if _, ok := g.index[from]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, from)
	}
	if _, ok := g.index[to]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	if from == to {
		return fmt.Errorf("%w: %q", ErrSelfLoop, from)
	}
	for _, s := range g.succ[from] {
		if s == to {
			return fmt.Errorf("%w: %q -> %q", ErrDuplicateEdge, from, to)
		}
	}
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	g.edges++
	return nil
}

// AddEdges inserts edges in order, exactly as repeated AddEdge calls
// would, stopping at the first error. The adjacency lists of the touched
// nodes are first carved out of two arrays sized for the whole batch, so
// building a graph edge by edge does not regrow every list.
func (g *Graph) AddEdges(edges [][2]string) error {
	out := make([]int, len(g.order))
	in := make([]int, len(g.order))
	total := 0
	for _, e := range edges {
		fi, okf := g.index[e[0]]
		ti, okt := g.index[e[1]]
		if okf && okt {
			out[fi]++
			in[ti]++
			total++
		}
	}
	succ := make([]string, 0, total+g.edges)
	pred := make([]string, 0, total+g.edges)
	for i, id := range g.order {
		if n := out[i]; n > 0 {
			s := g.succ[id]
			g.succ[id] = append(succ[len(succ):len(succ):len(succ)+len(s)+n], s...)
			succ = succ[:len(succ)+len(s)+n]
		}
		if n := in[i]; n > 0 {
			p := g.pred[id]
			g.pred[id] = append(pred[len(pred):len(pred):len(pred)+len(p)+n], p...)
			pred = pred[:len(pred)+len(p)+n]
		}
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (g *Graph) MustAddEdge(from, to string) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// HasNode reports whether id is a node of g.
func (g *Graph) HasNode(id string) bool {
	_, ok := g.index[id]
	return ok
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.order) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Nodes returns the node IDs in insertion order (a copy).
func (g *Graph) Nodes() []string {
	return append([]string(nil), g.order...)
}

// NodeAt returns the node with insertion index i, 0 <= i < NumNodes.
// Iterating by index reads the graph without the copy Nodes makes.
func (g *Graph) NodeAt(i int) string { return g.order[i] }

// Intern returns the graph's own copy of the node ID spelled by id, so a
// decoder can name a node by bytes without allocating a string. An
// unknown id is returned as a new string.
func (g *Graph) Intern(id []byte) string {
	if i, ok := g.index[string(id)]; ok {
		return g.order[i]
	}
	return string(id)
}

// AppendSucc appends the successors of id, in insertion order, to dst.
func (g *Graph) AppendSucc(dst []string, id string) []string {
	return append(dst, g.succ[id]...)
}

// Succ returns the successors of id in insertion order (a copy).
func (g *Graph) Succ(id string) []string {
	return append([]string(nil), g.succ[id]...)
}

// Pred returns the predecessors of id in insertion order (a copy).
func (g *Graph) Pred(id string) []string {
	return append([]string(nil), g.pred[id]...)
}

// Sources returns nodes with no predecessors, in insertion order.
func (g *Graph) Sources() []string {
	var out []string
	for _, id := range g.order {
		if len(g.pred[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Sinks returns nodes with no successors, in insertion order.
func (g *Graph) Sinks() []string {
	var out []string
	for _, id := range g.order {
		if len(g.succ[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Clone returns a deep copy of the graph. The copy is built directly from
// the internal representation — pre-sized maps, no duplicate-edge scans — so
// cloning a 10k-node graph costs one pass over nodes and edges instead of
// the quadratic-in-degree AddEdge path.
func (g *Graph) Clone() *Graph {
	out := NewWithCapacity(len(g.order))
	out.order = append(out.order, g.order...)
	for id, i := range g.index {
		out.index[id] = i
	}
	for _, id := range g.order {
		if s := g.succ[id]; len(s) > 0 {
			out.succ[id] = append(make([]string, 0, len(s)), s...)
		}
		if p := g.pred[id]; len(p) > 0 {
			out.pred[id] = append(make([]string, 0, len(p)), p...)
		}
	}
	out.edges = g.edges
	return out
}

// removeString splices the first occurrence of v out of s, preserving order.
func removeString(s []string, v string) []string {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// RemoveEdge deletes the directed edge from → to. It returns ErrUnknownNode
// if either endpoint does not exist and an error if the edge is absent.
func (g *Graph) RemoveEdge(from, to string) error {
	if _, ok := g.index[from]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, from)
	}
	if _, ok := g.index[to]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	found := false
	for _, s := range g.succ[from] {
		if s == to {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("dag: no edge %q -> %q", from, to)
	}
	g.succ[from] = removeString(g.succ[from], to)
	g.pred[to] = removeString(g.pred[to], from)
	g.edges--
	return nil
}

// RemoveNode deletes a node and every edge incident to it. Insertion order
// (and therefore the deterministic tie-breaking index) of the remaining
// nodes is preserved; the operation is O(n + deg).
func (g *Graph) RemoveNode(id string) error {
	pos, ok := g.index[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	for _, s := range g.succ[id] {
		g.pred[s] = removeString(g.pred[s], id)
		g.edges--
	}
	for _, p := range g.pred[id] {
		g.succ[p] = removeString(g.succ[p], id)
		g.edges--
	}
	delete(g.succ, id)
	delete(g.pred, id)
	delete(g.index, id)
	g.order = append(g.order[:pos], g.order[pos+1:]...)
	for i := pos; i < len(g.order); i++ {
		g.index[g.order[i]] = i
	}
	return nil
}

// OutDegree returns the number of successors of id (0 for unknown nodes).
func (g *Graph) OutDegree(id string) int { return len(g.succ[id]) }

// InDegree returns the number of predecessors of id (0 for unknown nodes).
func (g *Graph) InDegree(id string) int { return len(g.pred[id]) }

// TopoSort returns a topological order of the nodes (Kahn's algorithm with
// insertion-order tie-breaking, so the result is deterministic). It returns
// ErrCycle if the graph is cyclic and ErrEmpty if it has no nodes.
//
// The traversal runs entirely on insertion indices — one indegree slice and
// one sorted ready slice of ints — so no per-node map operations or string
// hashing happen on this path (hot for every Runner construction).
func (g *Graph) TopoSort() ([]string, error) {
	n := len(g.order)
	if n == 0 {
		return nil, ErrEmpty
	}
	indeg := make([]int, n)
	for i, id := range g.order {
		indeg[i] = len(g.pred[id])
	}
	// ready is kept sorted by insertion index for determinism.
	ready := make([]int, 0, n)
	for i := range g.order {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	out := make([]string, 0, n)
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		id := g.order[i]
		out = append(out, id)
		for _, s := range g.succ[id] {
			si := g.index[s]
			indeg[si]--
			if indeg[si] == 0 {
				ready = insertByIndex(ready, si)
			}
		}
	}
	if len(out) != n {
		return nil, ErrCycle
	}
	return out, nil
}

func insertByIndex(ready []int, i int) []int {
	pos := sort.Search(len(ready), func(j int) bool { return ready[j] > i })
	ready = append(ready, 0)
	copy(ready[pos+1:], ready[pos:])
	ready[pos] = i
	return ready
}

// Validate checks that the graph is non-empty, acyclic, and that every node
// is reachable in the undirected sense from the first source (i.e. the
// workflow is one connected component). Errors come in that order:
// ErrEmpty, ErrCycle, no source, no sink, disconnected.
//
// It is one pass of Kahn's algorithm on insertion indices, like TopoSort
// but counting instead of ordering, with a union-find over the edges it
// walks for the connectivity check: it runs on every spec validation,
// twice per configure request.
func (g *Graph) Validate() error {
	n := len(g.order)
	if n == 0 {
		return ErrEmpty
	}
	indeg := make([]int, n)
	ready := make([]int, 0, n)
	hasSink := false
	for i, id := range g.order {
		indeg[i] = len(g.pred[id])
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
		if len(g.succ[id]) == 0 {
			hasSink = true
		}
	}
	hasSource := len(ready) > 0
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	components := n
	visited := 0
	for len(ready) > 0 {
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		visited++
		for _, s := range g.succ[g.order[i]] {
			si := g.index[s]
			if a, b := find(parent, i), find(parent, si); a != b {
				parent[a] = b
				components--
			}
			indeg[si]--
			if indeg[si] == 0 {
				ready = append(ready, si)
			}
		}
	}
	switch {
	case visited != n:
		return ErrCycle
	case !hasSource:
		return errors.New("dag: no source node")
	case !hasSink:
		return errors.New("dag: no sink node")
	case components != 1:
		return errors.New("dag: graph is disconnected")
	}
	return nil
}

// find returns the root of i's set, halving the path on the way.
func find(parent []int, i int) int {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}

// HasPath reports whether a directed path exists from src to dst.
func (g *Graph) HasPath(src, dst string) bool {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return false
	}
	if src == dst {
		return true
	}
	seen := map[string]bool{src: true}
	stack := []string{src}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succ[id] {
			if s == dst {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}
