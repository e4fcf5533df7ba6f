package dag

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refGraph is the string-keyed Graph the index-based one replaced, kept
// as its differential oracle together with the algorithms over it: the
// adjacency lives in maps from node ID to successor and predecessor IDs.
type refGraph struct {
	order []string
	index map[string]int
	succ  map[string][]string
	pred  map[string][]string
	edges int
}

func newRefGraph() *refGraph {
	return &refGraph{
		index: map[string]int{},
		succ:  map[string][]string{},
		pred:  map[string][]string{},
	}
}

func (g *refGraph) AddNode(id string) error {
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

func (g *refGraph) AddEdge(from, to string) error {
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

func (g *refGraph) AddEdges(edges [][2]string) error {
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	return nil
}

func (g *refGraph) HasNode(id string) bool {
	_, ok := g.index[id]
	return ok
}

func (g *refGraph) Nodes() []string { return append([]string(nil), g.order...) }

func (g *refGraph) Succ(id string) []string { return append([]string(nil), g.succ[id]...) }

func (g *refGraph) Pred(id string) []string { return append([]string(nil), g.pred[id]...) }

func (g *refGraph) OutDegree(id string) int { return len(g.succ[id]) }

func (g *refGraph) InDegree(id string) int { return len(g.pred[id]) }

func (g *refGraph) Sinks() []string {
	var out []string
	for _, id := range g.order {
		if len(g.succ[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

func removeString(s []string, v string) []string {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func (g *refGraph) RemoveEdge(from, to string) error {
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

func (g *refGraph) RemoveNode(id string) error {
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

func (g *refGraph) TopoSort() ([]string, error) {
	n := len(g.order)
	if n == 0 {
		return nil, ErrEmpty
	}
	indeg := make([]int, n)
	for i, id := range g.order {
		indeg[i] = len(g.pred[id])
	}
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
				pos := sort.Search(len(ready), func(j int) bool { return ready[j] > si })
				ready = append(ready, 0)
				copy(ready[pos+1:], ready[pos:])
				ready[pos] = si
			}
		}
	}
	if len(out) != n {
		return nil, ErrCycle
	}
	return out, nil
}

func (g *refGraph) Validate() error {
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
	root := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	components := n
	visited := 0
	for len(ready) > 0 {
		i := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		visited++
		for _, s := range g.succ[g.order[i]] {
			si := g.index[s]
			if a, b := root(i), root(si); a != b {
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

func (g *refGraph) HasPath(src, dst string) bool {
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

// refCriticalPath is CriticalPath over refGraph. Its weight check runs in
// map order, so callers give it at most one bad weight.
func refCriticalPath(g *refGraph, weights map[string]float64) ([]string, float64, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, 0, err
	}
	for id, w := range weights {
		if !g.HasNode(id) {
			return nil, 0, fmt.Errorf("%w: weight for %q", ErrUnknownNode, id)
		}
		if w < 0 {
			return nil, 0, fmt.Errorf("dag: negative weight %v for %q", w, id)
		}
	}
	dist := make(map[string]float64, len(topo))
	prev := make(map[string]string, len(topo))
	for _, id := range topo {
		best := 0.0
		bestPred := ""
		for _, p := range g.pred[id] {
			if bestPred == "" || dist[p] > best ||
				(dist[p] == best && g.index[p] < g.index[bestPred]) {
				best = dist[p]
				bestPred = p
			}
		}
		dist[id] = best + weights[id]
		if bestPred != "" {
			prev[id] = bestPred
		}
	}
	var end string
	bestDist := -1.0
	for _, id := range g.Sinks() {
		if dist[id] > bestDist {
			bestDist = dist[id]
			end = id
		}
	}
	if end == "" {
		return nil, 0, errors.New("dag: no sink found")
	}
	var rev []string
	for id := end; ; {
		rev = append(rev, id)
		p, ok := prev[id]
		if !ok {
			break
		}
		id = p
	}
	path := make([]string, len(rev))
	for i, id := range rev {
		path[len(rev)-1-i] = id
	}
	return path, bestDist, nil
}

// refFindDetourSubpaths is FindDetourSubpaths over refGraph.
func refFindDetourSubpaths(g *refGraph, critical []string, weights map[string]float64) ([]Subpath, error) {
	onCP := make(map[string]bool, len(critical))
	cpIndex := make(map[string]int, len(critical))
	for i, id := range critical {
		if !g.HasNode(id) {
			return nil, fmt.Errorf("%w: critical node %q", ErrUnknownNode, id)
		}
		if onCP[id] {
			return nil, fmt.Errorf("dag: critical path repeats node %q", id)
		}
		onCP[id] = true
		cpIndex[id] = i
	}
	var out []Subpath
	var walk func(anchor string, node string, trail []string)
	walk = func(anchor, node string, trail []string) {
		for _, next := range g.succ[node] {
			if onCP[next] {
				directCPEdge := len(trail) == 0 && cpIndex[next] == cpIndex[anchor]+1
				if cpIndex[next] > cpIndex[anchor] && !directCPEdge {
					nodes := make([]string, 0, len(trail)+2)
					nodes = append(nodes, anchor)
					nodes = append(nodes, trail...)
					nodes = append(nodes, next)
					out = append(out, Subpath{Start: anchor, End: next, Nodes: nodes})
				}
				continue
			}
			seen := false
			for _, t := range trail {
				if t == next {
					seen = true
					break
				}
			}
			if seen {
				continue
			}
			walk(anchor, next, append(trail, next))
		}
	}
	for _, anchor := range critical {
		walk(anchor, anchor, nil)
	}
	type weighted struct {
		sp Subpath
		w  float64
	}
	ws := make([]weighted, len(out))
	for i, sp := range out {
		ws[i] = weighted{sp, PathWeight(sp.interior(), weights)}
	}
	sort.SliceStable(ws, func(i, j int) bool {
		if ws[i].w != ws[j].w {
			return ws[i].w > ws[j].w
		}
		if cpIndex[ws[i].sp.Start] != cpIndex[ws[j].sp.Start] {
			return cpIndex[ws[i].sp.Start] < cpIndex[ws[j].sp.Start]
		}
		return cpIndex[ws[i].sp.End] < cpIndex[ws[j].sp.End]
	})
	for i := range ws {
		out[i] = ws[i].sp
	}
	return out, nil
}

// refFrom copies g's nodes, in insertion order, and its edges, grouped by
// source in that order, into a refGraph. Predecessor lists come out in
// the same order only when g's edges went in in that order too, as they
// do when DecodeSpec reads an EncodeSpec body.
func refFrom(g *Graph) *refGraph {
	ref := newRefGraph()
	for _, id := range g.Nodes() {
		_ = ref.AddNode(id)
	}
	for _, id := range g.Nodes() {
		for _, s := range g.Succ(id) {
			_ = ref.AddEdge(id, s)
		}
	}
	return ref
}

// CheckAgainstOracle compares g with the string-keyed oracle built from
// its nodes and edges; subpaths turns on the FindDetourSubpaths
// comparison, which the oracle finishes only on small or sparse graphs.
// It is exported for the external test package, which can import
// workloads without an import cycle.
func CheckAgainstOracle(t testing.TB, g *Graph, weights map[string]float64, subpaths bool) {
	t.Helper()
	checkAgainstRef(t, g, refFrom(g), weights, subpaths)
}

func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// checkAgainstRef compares every query of g with the oracle's answer.
// HasPath is checked on all pairs of a grid of at most 17 nodes per side.
func checkAgainstRef(t testing.TB, g *Graph, ref *refGraph, weights map[string]float64, subpaths bool) {
	t.Helper()
	nodes := g.Nodes()
	if !slices.Equal(nodes, ref.Nodes()) || g.NumEdges() != ref.edges {
		t.Fatalf("nodes %v (%d edges), oracle %v (%d edges)", nodes, g.NumEdges(), ref.Nodes(), ref.edges)
	}
	for _, id := range append(nodes, "zz") {
		if !slices.Equal(g.Succ(id), ref.Succ(id)) || !slices.Equal(g.Pred(id), ref.Pred(id)) ||
			g.OutDegree(id) != ref.OutDegree(id) || g.InDegree(id) != ref.InDegree(id) {
			t.Fatalf("adjacency of %q: succ %v pred %v, oracle succ %v pred %v",
				id, g.Succ(id), g.Pred(id), ref.Succ(id), ref.Pred(id))
		}
	}
	topo, err := g.TopoSort()
	rtopo, rerr := ref.TopoSort()
	if !slices.Equal(topo, rtopo) || !sameErr(err, rerr) {
		t.Fatalf("TopoSort %v (%v), oracle %v (%v)", topo, err, rtopo, rerr)
	}
	if verr, rverr := g.Validate(), ref.Validate(); !sameErr(verr, rverr) {
		t.Fatalf("Validate %v, oracle %v", verr, rverr)
	}
	stride := max(1, len(nodes)/16)
	for i := 0; i < len(nodes); i += stride {
		for j := 0; j < len(nodes); j += stride {
			a, b := nodes[i], nodes[j]
			if g.HasPath(a, b) != ref.HasPath(a, b) {
				t.Fatalf("HasPath(%s, %s) = %v, oracle disagrees", a, b, g.HasPath(a, b))
			}
		}
	}
	cp, total, err := CriticalPath(g, weights)
	rcp, rtotal, rerr := refCriticalPath(ref, weights)
	if !slices.Equal(cp, rcp) || total != rtotal || !sameErr(err, rerr) {
		t.Fatalf("CriticalPath %v %v (%v), oracle %v %v (%v)", cp, total, err, rcp, rtotal, rerr)
	}
	if err != nil || !subpaths {
		return
	}
	sps, err := FindDetourSubpaths(g, cp, weights)
	rsps, rerr := refFindDetourSubpaths(ref, cp, weights)
	if !reflect.DeepEqual(sps, rsps) || !sameErr(err, rerr) {
		t.Fatalf("FindDetourSubpaths %v (%v), oracle %v (%v)", sps, err, rsps, rerr)
	}
}
