// Package dag implements the weighted directed-acyclic-graph substrate the
// Graph-Centric Scheduler operates on: construction and validation of
// workflow DAGs, topological ordering, critical-path extraction on
// node-weighted graphs, detour sub-path enumeration, and the runtime-sum
// window computation of Algorithm 1.
package dag

import (
	"errors"
	"fmt"
	"maps"
	"slices"
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
//
// Nodes are numbered by insertion index and the adjacency lists hold
// those indices, so the algorithms walk flat slices; node IDs are hashed
// only where a caller names a node by its string.
type Graph struct {
	order []string       // insertion index -> node ID
	index map[string]int // node ID -> insertion index
	succ  [][]int32      // insertion index -> successors, in insertion order
	pred  [][]int32      // insertion index -> predecessors, in insertion order
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
		succ:  make([][]int32, 0, n),
		pred:  make([][]int32, 0, n),
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
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return nil
}

// MustAddNode is AddNode that panics on error; intended for static workflow
// definitions whose shape is fixed at compile time.
func (g *Graph) MustAddNode(id string) {
	if err := g.AddNode(id); err != nil {
		panic(err)
	}
}

// endpoints resolves an edge's node IDs to insertion indices.
func (g *Graph) endpoints(from, to string) (int32, int32, error) {
	fi, ok := g.index[from]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownNode, from)
	}
	ti, ok := g.index[to]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	return int32(fi), int32(ti), nil
}

// AddEdge inserts a directed edge from → to. Both endpoints must exist.
func (g *Graph) AddEdge(from, to string) error {
	fi, ti, err := g.endpoints(from, to)
	if err != nil {
		return err
	}
	return g.addEdge(fi, ti)
}

func (g *Graph) addEdge(from, to int32) error {
	if from == to {
		return fmt.Errorf("%w: %q", ErrSelfLoop, g.order[from])
	}
	if slices.Contains(g.succ[from], to) {
		return fmt.Errorf("%w: %q -> %q", ErrDuplicateEdge, g.order[from], g.order[to])
	}
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	g.edges++
	return nil
}

// AddEdges inserts edges given as insertion-index pairs, in order, exactly
// as AddEdge on their node IDs would, stopping at the first error. Every
// index must be below NumNodes. The adjacency lists of the touched nodes
// are first carved out of one array sized for the whole batch, so
// building a graph edge by edge does not regrow every list.
func (g *Graph) AddEdges(edges [][2]int32) error {
	n := len(g.order)
	deg := make([]int32, 2*n) // out-degree added, then in-degree added
	for _, e := range edges {
		deg[e[0]]++
		deg[n+int(e[1])]++
	}
	pool := make([]int32, 0, 2*(len(edges)+g.edges))
	carve := func(l []int32, add int32) []int32 {
		at, end := len(pool), len(pool)+len(l)+int(add)
		pool = pool[:end]
		return append(pool[at:at:end], l...)
	}
	for i := range n {
		if deg[i] > 0 {
			g.succ[i] = carve(g.succ[i], deg[i])
		}
		if deg[n+i] > 0 {
			g.pred[i] = carve(g.pred[i], deg[n+i])
		}
	}
	for _, e := range edges {
		if err := g.addEdge(e[0], e[1]); err != nil {
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

// IndexOf returns the insertion index of the node spelled by id, so a
// decoder can name a node by bytes without allocating a string.
func (g *Graph) IndexOf(id []byte) (int32, bool) {
	i, ok := g.index[string(id)]
	return int32(i), ok
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

// SuccAt returns the insertion indices of node i's successors, in
// insertion order. The slice is the graph's own: callers must not modify
// it, and it is valid until the next edit.
func (g *Graph) SuccAt(i int) []int32 { return g.succ[i] }

// InDegreeAt returns the number of predecessors of node i.
func (g *Graph) InDegreeAt(i int) int { return len(g.pred[i]) }

// ids maps insertion indices to node IDs in a slice of exactly their
// length (nil for none).
func (g *Graph) ids(is []int32) []string {
	if len(is) == 0 {
		return nil
	}
	out := make([]string, len(is))
	for k, i := range is {
		out[k] = g.order[i]
	}
	return out
}

// adj returns id's list in lists (g.succ or g.pred); nil for an unknown id.
func (g *Graph) adj(id string, lists [][]int32) []int32 {
	if i, ok := g.index[id]; ok {
		return lists[i]
	}
	return nil
}

// Succ returns the successors of id in insertion order (a copy).
func (g *Graph) Succ(id string) []string { return g.ids(g.adj(id, g.succ)) }

// Pred returns the predecessors of id in insertion order (a copy).
func (g *Graph) Pred(id string) []string { return g.ids(g.adj(id, g.pred)) }

// OutDegree returns the number of successors of id (0 for unknown nodes).
func (g *Graph) OutDegree(id string) int { return len(g.adj(id, g.succ)) }

// InDegree returns the number of predecessors of id (0 for unknown nodes).
func (g *Graph) InDegree(id string) int { return len(g.adj(id, g.pred)) }

// Sources returns nodes with no predecessors, in insertion order.
func (g *Graph) Sources() []string { return g.empty(g.pred) }

// Sinks returns nodes with no successors, in insertion order.
func (g *Graph) Sinks() []string { return g.empty(g.succ) }

// empty returns the nodes whose list in lists is empty, in insertion order.
func (g *Graph) empty(lists [][]int32) []string {
	var out []string
	for i, l := range lists {
		if len(l) == 0 {
			out = append(out, g.order[i])
		}
	}
	return out
}

// Clone returns a deep copy of the graph in one pass over nodes and edges.
func (g *Graph) Clone() *Graph {
	out := &Graph{order: slices.Clone(g.order), index: maps.Clone(g.index), edges: g.edges}
	for i := range g.order {
		out.succ = append(out.succ, slices.Clone(g.succ[i]))
		out.pred = append(out.pred, slices.Clone(g.pred[i]))
	}
	return out
}

// RemoveEdge deletes the directed edge from → to. It returns ErrUnknownNode
// if either endpoint does not exist and an error if the edge is absent.
func (g *Graph) RemoveEdge(from, to string) error {
	fi, ti, err := g.endpoints(from, to)
	if err != nil {
		return err
	}
	k := slices.Index(g.succ[fi], ti)
	if k < 0 {
		return fmt.Errorf("dag: no edge %q -> %q", from, to)
	}
	g.succ[fi] = slices.Delete(g.succ[fi], k, k+1)
	k = slices.Index(g.pred[ti], fi)
	g.pred[ti] = slices.Delete(g.pred[ti], k, k+1)
	g.edges--
	return nil
}

// RemoveNode deletes a node and every edge incident to it. Insertion order
// (and therefore the deterministic tie-breaking index) of the remaining
// nodes is preserved; the later nodes' indices shift down by one, so the
// operation is O(n + e).
func (g *Graph) RemoveNode(id string) error {
	pos, ok := g.index[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	p := int32(pos)
	g.edges -= len(g.succ[pos]) + len(g.pred[pos])
	g.order = slices.Delete(g.order, pos, pos+1)
	g.succ = slices.Delete(g.succ, pos, pos+1)
	g.pred = slices.Delete(g.pred, pos, pos+1)
	delete(g.index, id)
	for i := pos; i < len(g.order); i++ {
		g.index[g.order[i]] = i
	}
	renumber := func(l []int32) []int32 {
		l = slices.DeleteFunc(l, func(x int32) bool { return x == p })
		for k, x := range l {
			if x > p {
				l[k] = x - 1
			}
		}
		return l
	}
	for i := range g.order {
		g.succ[i] = renumber(g.succ[i])
		g.pred[i] = renumber(g.pred[i])
	}
	return nil
}

// TopoSort returns a topological order of the nodes (Kahn's algorithm with
// insertion-order tie-breaking, so the result is deterministic). It returns
// ErrCycle if the graph is cyclic and ErrEmpty if it has no nodes.
func (g *Graph) TopoSort() ([]string, error) {
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return g.ids(topo), nil
}

// TopoOrder is TopoSort on insertion indices: the same order, with no
// node ID touched.
func (g *Graph) TopoOrder() ([]int32, error) {
	n := len(g.order)
	if n == 0 {
		return nil, ErrEmpty
	}
	indeg := make([]int32, n)
	// ready is kept sorted descending, so the lowest insertion index —
	// the deterministic tie-break — pops off the end.
	ready := make([]int32, 0, n)
	for i := n - 1; i >= 0; i-- {
		indeg[i] = int32(len(g.pred[i]))
		if indeg[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	out := make([]int32, 0, n)
	for len(ready) > 0 {
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		out = append(out, i)
		for _, s := range g.succ[i] {
			indeg[s]--
			if indeg[s] == 0 {
				k := sort.Search(len(ready), func(j int) bool { return ready[j] < s })
				ready = slices.Insert(ready, k, s)
			}
		}
	}
	if len(out) != n {
		return nil, ErrCycle
	}
	return out, nil
}

// Validate checks that the graph is non-empty, acyclic, and that every node
// is reachable in the undirected sense from the first source (i.e. the
// workflow is one connected component). Errors come in that order:
// ErrEmpty, ErrCycle, disconnected. (A non-empty acyclic graph always
// has a source and a sink.)
//
// It is one pass of Kahn's algorithm, like TopoOrder but counting instead
// of ordering, with a union-find over the edges it walks for the
// connectivity check: it runs on every spec validation.
func (g *Graph) Validate() error {
	n := len(g.order)
	if n == 0 {
		return ErrEmpty
	}
	indeg := make([]int32, n)
	ready := make([]int32, 0, n)
	for i := range n {
		indeg[i] = int32(len(g.pred[i]))
		if indeg[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	components := n
	visited := 0
	for len(ready) > 0 {
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		visited++
		for _, s := range g.succ[i] {
			if a, b := find(parent, i), find(parent, s); a != b {
				parent[a] = b
				components--
			}
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	switch {
	case visited != n:
		return ErrCycle
	case components != 1:
		return errors.New("dag: graph is disconnected")
	}
	return nil
}

// find returns the root of i's set, halving the path on the way.
func find(parent []int32, i int32) int32 {
	for parent[i] != i {
		parent[i] = parent[parent[i]]
		i = parent[i]
	}
	return i
}

// HasPath reports whether a directed path exists from src to dst.
func (g *Graph) HasPath(src, dst string) bool {
	si, di, err := g.endpoints(src, dst)
	if err != nil {
		return false
	}
	seen := make([]bool, len(g.order))
	seen[si] = true
	stack := []int32{si}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		if i == di {
			return true
		}
		stack = stack[:len(stack)-1]
		for _, s := range g.succ[i] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}
