package dag

import (
	"errors"
	"fmt"
	"slices"
)

// CriticalPath returns the maximum-weight source→sink path of the graph
// under the given node weights (the paper's find_critical_path). Weights are
// per-node (function runtimes); missing entries count as zero. The second
// return value is the path's total weight. Ties resolve deterministically in
// favour of earlier-inserted nodes. Of several bad weights (an unknown node
// or a negative weight), the one with the smallest node ID is reported.
func CriticalPath(g *Graph, weights map[string]float64) ([]string, float64, error) {
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	if err := checkWeights(g, weights); err != nil {
		return nil, 0, err
	}

	n := len(g.order)
	dist := make([]float64, n)
	prev := make([]int32, n)
	for _, i := range topo {
		best, bestPred := 0.0, int32(-1)
		for _, p := range g.pred[i] {
			if bestPred < 0 || dist[p] > best || (dist[p] == best && p < bestPred) {
				best, bestPred = dist[p], p
			}
		}
		dist[i] = best + weights[g.order[i]]
		prev[i] = bestPred
	}

	// Pick the best sink.
	end := int32(-1)
	bestDist := -1.0
	for i, s := range g.succ {
		if len(s) == 0 && dist[i] > bestDist {
			bestDist, end = dist[i], int32(i)
		}
	}
	if end < 0 {
		return nil, 0, errors.New("dag: no sink found")
	}

	var rev []string
	for i := end; i >= 0; i = prev[i] {
		rev = append(rev, g.order[i])
	}
	slices.Reverse(rev)
	return rev, bestDist, nil
}

// checkWeights rejects a weight for an unknown node or a negative weight,
// naming the smallest offending node ID so the error does not depend on
// map order.
func checkWeights(g *Graph, weights map[string]float64) error {
	bad, found := "", false
	for id, w := range weights {
		if (!g.HasNode(id) || w < 0) && (!found || id < bad) {
			bad, found = id, true
		}
	}
	switch {
	case !found:
		return nil
	case !g.HasNode(bad):
		return fmt.Errorf("%w: weight for %q", ErrUnknownNode, bad)
	default:
		return fmt.Errorf("dag: negative weight %v for %q", weights[bad], bad)
	}
}

// PathWeight sums the node weights along path.
func PathWeight(path []string, weights map[string]float64) float64 {
	s := 0.0
	for _, id := range path {
		s += weights[id]
	}
	return s
}

// RuntimeSum is the paper's runtime_sum(path, start, end): the total weight
// of the nodes of path from start to end inclusive. It errors if either
// anchor is missing from the path or appears in the wrong order.
func RuntimeSum(path []string, start, end string, weights map[string]float64) (float64, error) {
	si, ei := -1, -1
	for i, id := range path {
		if id == start && si == -1 {
			si = i
		}
		if id == end {
			ei = i
		}
	}
	if si == -1 {
		return 0, fmt.Errorf("dag: runtime_sum start %q not on path", start)
	}
	if ei == -1 {
		return 0, fmt.Errorf("dag: runtime_sum end %q not on path", end)
	}
	if ei < si {
		return 0, fmt.Errorf("dag: runtime_sum end %q precedes start %q", end, start)
	}
	s := 0.0
	for _, id := range path[si : ei+1] {
		s += weights[id]
	}
	return s, nil
}
