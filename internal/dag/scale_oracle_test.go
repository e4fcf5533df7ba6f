package dag_test

import (
	"bytes"
	"fmt"
	"testing"

	"aarc/internal/dag"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// TestGraphMatchesOracleOnScaleFamilies compares the index-based graph
// with the string-keyed oracle on every generated family at 100 and 1000
// nodes, seeds 1-3, weighted by the profiles' CPU work. The graph under
// test is the one the decoder builds from the spec's EncodeSpec body,
// whose edge order the oracle replays. The detour enumeration is
// compared where the oracle's exhaustive walk finishes: everywhere but
// the dense layered and random families at 1000 nodes.
func TestGraphMatchesOracleOnScaleFamilies(t *testing.T) {
	for _, topo := range workloads.Topologies() {
		for _, n := range []int{100, 1000} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s-%d-%d", topo, n, seed), func(t *testing.T) {
					spec, err := workloads.Scale(workloads.ScaleOptions{Topology: topo, Nodes: n, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					var body bytes.Buffer
					if err := workflow.EncodeSpec(&body, spec); err != nil {
						t.Fatal(err)
					}
					decoded, err := workflow.DecodeSpec(&body)
					if err != nil {
						t.Fatal(err)
					}
					weights := make(map[string]float64, n)
					for id, p := range decoded.Profiles {
						weights[id] = p.CPUWorkMS
					}
					dense := n == 1000 && (topo == workloads.TopologyLayered || topo == workloads.TopologyRandom)
					dag.CheckAgainstOracle(t, decoded.G, weights, !dense)
				})
			}
		}
	}
}
