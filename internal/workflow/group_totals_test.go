package workflow_test

import (
	"math"
	"testing"

	"aarc/internal/experiments"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// TestGroupCostsPlanOrderDeterministic: a result's group sums must not
// depend on map iteration order. For every scale family at 200 nodes,
// every group's GroupCost and GroupSteadyCost is bit-identical across 100
// calls and equals the sum of its nodes taken in plan (topological) order.
func TestGroupCostsPlanOrderDeterministic(t *testing.T) {
	for _, topo := range workloads.Topologies() {
		t.Run(string(topo), func(t *testing.T) {
			spec, err := workloads.Scale(workloads.ScaleOptions{Topology: topo, Nodes: 200, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			runner, err := workflow.NewRunner(spec, workflow.RunnerOptions{HostCores: experiments.HostCores, Noise: true, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			res, err := runner.Evaluate(runner.Base())
			if err != nil {
				t.Fatal(err)
			}
			order, err := spec.G.TopoSort()
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range spec.FunctionGroups() {
				var cost, steady float64
				for _, id := range order {
					nr := res.Nodes[id]
					if nr.Group != g || nr.RuntimeMS <= 0 {
						continue
					}
					cost += nr.Cost
					steady += nr.Cost * math.Max(0, (nr.RuntimeMS-nr.ColdStartMS)/nr.RuntimeMS)
				}
				for call := 0; call < 100; call++ {
					if got := res.GroupCost(g); math.Float64bits(got) != math.Float64bits(cost) {
						t.Fatalf("group %s call %d: GroupCost = %v, plan-order sum %v", g, call, got, cost)
					}
					if got := res.GroupSteadyCost(g); math.Float64bits(got) != math.Float64bits(steady) {
						t.Fatalf("group %s call %d: GroupSteadyCost = %v, plan-order sum %v", g, call, got, steady)
					}
				}
			}
		})
	}
}

// TestEvaluateAllocs pins a steady-state Evaluate on each paper workload
// at its BenchmarkEvaluate count: the result's Nodes map and nothing else
// (the platform invocations and the group totals allocate nothing).
func TestEvaluateAllocs(t *testing.T) {
	want := map[string]float64{"chatbot": 4, "ml-pipeline": 2, "video-analysis": 4}
	for _, w := range experiments.Workloads() {
		spec, err := workloads.ByName(w)
		if err != nil {
			t.Fatal(err)
		}
		runner, err := workflow.NewRunner(spec, workflow.RunnerOptions{HostCores: experiments.HostCores, Noise: true, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		a := runner.Base()
		if _, err := runner.Evaluate(a); err != nil { // warm containers and scratch
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := runner.Evaluate(a); err != nil {
				t.Fatal(err)
			}
		})
		if got != want[w] {
			t.Errorf("%s: Evaluate allocates %v times, want %v", w, got, want[w])
		}
	}
}
