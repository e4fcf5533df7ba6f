package dag

import (
	"slices"
	"testing"
)

// fuzzWeights gives every node one of four weights by its ID, so ties
// get exercised.
func fuzzWeights(nodes []string) map[string]float64 {
	w := make(map[string]float64, len(nodes))
	for _, id := range nodes {
		w[id] = float64(id[0]%4 + 1)
	}
	return w
}

// FuzzGraphDifferential drives random AddNode, AddEdge, AddEdges,
// RemoveEdge and RemoveNode sequences through Graph and the string-keyed
// oracle, and after every step compares errors, adjacency, degrees,
// TopoSort, Validate, HasPath, CriticalPath and FindDetourSubpaths.
// Each step reads three bytes: the operation and two node names drawn
// from ten IDs; an AddEdges batch reads two more bytes per edge, for up
// to four edges (the third byte picks how many). An input runs at most
// maxSteps steps, so a long one cannot stall the fuzzer.
func FuzzGraphDifferential(f *testing.F) {
	const maxSteps = 64
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 2, 0, 1, 2, 1, 2, 3, 2, 0, 1, 2, 5, 1, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 3, 3, 0, 1, 1, 2, 2, 3, 0, 3, 4, 0, 1, 5, 2, 0})
	f.Add([]byte{0, 9, 0, 0, 8, 0, 2, 9, 8, 2, 8, 9, 2, 9, 9, 2, 9, 8, 4, 9, 8, 4, 9, 8, 5, 7, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		g, ref := New(), newRefGraph()
		name := func(b byte) string { return string(rune('a' + b%10)) }
		for step := 0; step < maxSteps && len(ops) >= 3; step++ {
			op, a, b, size := ops[0], name(ops[1]), name(ops[2]), int(ops[2])%4+1
			ops = ops[3:]
			var err, rerr error
			switch op % 6 {
			case 0, 1:
				err, rerr = g.AddNode(a), ref.AddNode(a)
			case 2:
				err, rerr = g.AddEdge(a, b), ref.AddEdge(a, b)
			case 3:
				// A batch names existing nodes only: an index cannot
				// spell an unknown one.
				n := g.NumNodes()
				if n == 0 {
					continue
				}
				var edges [][2]int32
				var named [][2]string
				for ; size > 0 && len(ops) >= 2; size-- {
					e := [2]int32{int32(int(ops[0]) % n), int32(int(ops[1]) % n)}
					ops = ops[2:]
					edges = append(edges, e)
					named = append(named, [2]string{g.NodeAt(int(e[0])), g.NodeAt(int(e[1]))})
				}
				err, rerr = g.AddEdges(edges), ref.AddEdges(named)
			case 4:
				err, rerr = g.RemoveEdge(a, b), ref.RemoveEdge(a, b)
			case 5:
				err, rerr = g.RemoveNode(a), ref.RemoveNode(a)
			}
			if !sameErr(err, rerr) {
				t.Fatalf("op %d(%s, %s): err %v, oracle %v", op%6, a, b, err, rerr)
			}
			checkAgainstRef(t, g, ref, fuzzWeights(g.Nodes()), true)
		}
	})
}

// TestCriticalPathBadWeightsDeterministic: with several bad weights the
// error names the smallest offending ID, whatever the map order.
func TestCriticalPathBadWeightsDeterministic(t *testing.T) {
	g := New()
	for _, id := range []string{"a", "b", "c"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("a", "b")
	g.MustAddEdge("b", "c")
	for _, c := range []struct {
		weights map[string]float64
		want    string
	}{
		{map[string]float64{"zz": 1, "b": -1, "a": 1}, `dag: negative weight -1 for "b"`},
		{map[string]float64{"c": -2, "b": -1, "x": 3}, `dag: negative weight -1 for "b"`},
		{map[string]float64{"zz": 1, "c": -1, "y": 2}, `dag: negative weight -1 for "c"`},
		{map[string]float64{"zz": 1, "c": 1, "q": 2}, `dag: unknown node: weight for "q"`},
	} {
		for range 50 {
			if _, _, err := CriticalPath(g, c.weights); err == nil || err.Error() != c.want {
				t.Fatalf("weights %v: err %v, want %s", c.weights, err, c.want)
			}
		}
	}
}

// TestIndexViewMatchesStrings: the index accessors agree with the string
// ones they stand beside.
func TestIndexViewMatchesStrings(t *testing.T) {
	g := layeredRandomDAG(300, 3, 5)
	topo, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := g.TopoSort()
	for k, i := range topo {
		if g.NodeAt(int(i)) != want[k] {
			t.Fatalf("TopoOrder[%d] = %s, TopoSort %s", k, g.NodeAt(int(i)), want[k])
		}
	}
	for i := range g.NumNodes() {
		id := g.NodeAt(i)
		if j, ok := g.IndexOf([]byte(id)); !ok || int(j) != i {
			t.Fatalf("IndexOf(%s) = %d, %v", id, j, ok)
		}
		var succ []string
		for _, s := range g.SuccAt(i) {
			succ = append(succ, g.NodeAt(int(s)))
		}
		if !slices.Equal(succ, g.Succ(id)) || g.InDegreeAt(i) != g.InDegree(id) {
			t.Fatalf("index view of %s differs", id)
		}
	}
	if _, ok := g.IndexOf([]byte("zz")); ok {
		t.Error("IndexOf found an unknown node")
	}
}
