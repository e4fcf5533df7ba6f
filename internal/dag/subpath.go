package dag

import (
	"fmt"
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
				// Rejoined the critical path: emit anchor..trail..next.
				// Only forward rejoins are valid in a DAG workflow; a rejoin
				// at or before the anchor would contradict acyclicity given
				// the anchor precedes the detour, but guard anyway. A direct
				// edge to the anchor's immediate critical successor is the
				// critical path itself, not a detour; direct edges that skip
				// ahead ("bypass" edges) are real detours with an empty
				// interior.
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
			// Stay off-critical; simple-path check against the trail.
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

	// Each subpath's interior weight is computed once, not per comparison.
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
