package dag

import (
	"fmt"
	"slices"
	"sort"
)

// Subpath is a detour branch that leaves the critical path at Start and
// rejoins it at End. Nodes contains the full sequence including both
// anchors, matching the pseudocode of Algorithm 1, where already-scheduled
// nodes (at minimum the two anchors) are popped and their runtime subtracted
// from the sub-SLO window.
type Subpath struct {
	Start string
	End   string
	Nodes []string
}

// interior returns the off-critical nodes of the subpath (everything
// except the two anchors), sharing Nodes' storage.
func (s Subpath) interior() []string {
	if len(s.Nodes) <= 2 {
		return nil
	}
	return s.Nodes[1 : len(s.Nodes)-1]
}

// String renders the subpath as "A -> x -> y -> B".
func (s Subpath) String() string {
	out := ""
	for i, id := range s.Nodes {
		if i > 0 {
			out += " -> "
		}
		out += id
	}
	return out
}

// FindDetourSubpaths enumerates the paper's find_detour_subpath(G, L): all
// simple paths that depart from a critical-path node, traverse only
// off-critical interior nodes, and rejoin the critical path downstream.
//
// The result is ordered for the scheduler: descending interior weight (the
// heaviest, most SLO-threatening branch first), then by the anchors'
// position on the critical path. Overlapping branches that share interior
// nodes each appear; Algorithm 1's scheduled flags make the overlap safe
// (a function is only ever configured once).
func FindDetourSubpaths(g *Graph, critical []string, weights map[string]float64) ([]Subpath, error) {
	cpIndex := make([]int32, len(g.order)) // critical-path position, -1 if off it
	for i := range cpIndex {
		cpIndex[i] = -1
	}
	for i, id := range critical {
		v, ok := g.index[id]
		if !ok {
			return nil, fmt.Errorf("%w: critical node %q", ErrUnknownNode, id)
		}
		if cpIndex[v] >= 0 {
			return nil, fmt.Errorf("dag: critical path repeats node %q", id)
		}
		cpIndex[v] = int32(i)
	}

	type found struct {
		sp         Subpath
		w          float64 // interior weight, computed once, not per comparison
		start, end int32   // the anchors' critical-path positions
	}
	var out []found
	var walk func(anchor, node int32, trail []int32)
	walk = func(anchor, node int32, trail []int32) {
		for _, next := range g.succ[node] {
			if c := cpIndex[next]; c >= 0 {
				// Rejoined the critical path: emit anchor..trail..next.
				// Only forward rejoins are valid in a DAG workflow; a rejoin
				// at or before the anchor would contradict acyclicity given
				// the anchor precedes the detour, but guard anyway. A direct
				// edge to the anchor's immediate critical successor is the
				// critical path itself, not a detour; direct edges that skip
				// ahead ("bypass" edges) are real detours with an empty
				// interior.
				directCPEdge := len(trail) == 0 && c == cpIndex[anchor]+1
				if c > cpIndex[anchor] && !directCPEdge {
					nodes := make([]string, 0, len(trail)+2)
					nodes = append(nodes, g.order[anchor])
					for _, t := range trail {
						nodes = append(nodes, g.order[t])
					}
					nodes = append(nodes, g.order[next])
					sp := Subpath{Start: nodes[0], End: nodes[len(nodes)-1], Nodes: nodes}
					out = append(out, found{sp, PathWeight(sp.interior(), weights), cpIndex[anchor], c})
				}
				continue
			}
			// Stay off-critical; simple-path check against the trail.
			if slices.Contains(trail, next) {
				continue
			}
			walk(anchor, next, append(trail, next))
		}
	}
	for _, id := range critical {
		a := int32(g.index[id])
		walk(a, a, nil)
	}

	sort.SliceStable(out, func(i, j int) bool {
		if out[i].w != out[j].w {
			return out[i].w > out[j].w
		}
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].end < out[j].end
	})
	if len(out) == 0 {
		return nil, nil
	}
	sps := make([]Subpath, len(out))
	for i := range out {
		sps[i] = out[i].sp
	}
	return sps, nil
}
