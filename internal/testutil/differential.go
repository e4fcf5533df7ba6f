package testutil

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"aarc/internal/dag"
	"aarc/internal/perfmodel"
	"aarc/internal/resources"
	"aarc/internal/search"
	"aarc/internal/simfaas"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// DifferentialOptions parameterizes the property-based differential harness.
type DifferentialOptions struct {
	// Topology and Nodes shape the initial generated workflow.
	Topology workloads.Topology
	Nodes    int
	// Steps is the number of seeded mutation deltas to drive (each delta
	// carries one to several individual mutations).
	Steps int
	// Seed drives the generator and every mutation draw.
	Seed uint64
	// OrderEvery / CPEvery / CheckEvery set the cadence (in steps) of the
	// O(V+E) order verification, the incremental-vs-full critical-path
	// comparison, and the patched-vs-rebuilt plan + evaluation comparison.
	// The expensive full recomputes are sampled so a 10k-node run stays
	// fast even under the race detector; a final round always runs.
	OrderEvery, CPEvery, CheckEvery int
}

// RunDifferential is the centerpiece differential harness of the incremental
// compilation stack. It generates a seeded workflow, then drives a stream of
// random churn deltas through three parallel representations:
//
//   - a Runner whose compiled plan is patched in place (Runner.Patch),
//   - a dag.Dynamic maintaining topological order and critical path
//     incrementally over a mirror graph,
//   - the spec itself, from which from-scratch rebuilds are compiled.
//
// After every delta the maintained topological order must verify; on the
// configured cadences the incremental critical path must equal a full
// recompute bit-for-bit (same weight, same path), and the patched plan must
// be equivalent to a freshly compiled plan with evaluation results matching
// (structure exact, float timings within relative 1e-9 — plans with
// different dense numbering may sum floats in a different order). It returns
// the total number of individual mutations exercised.
func RunDifferential(tb testing.TB, opts DifferentialOptions) int {
	tb.Helper()
	if opts.Topology == "" {
		opts.Topology = workloads.TopologyRandom
	}
	if opts.Nodes == 0 {
		opts.Nodes = 1000
	}
	if opts.Steps == 0 {
		opts.Steps = 200
	}
	if opts.OrderEvery <= 0 {
		opts.OrderEvery = 10
	}
	if opts.CPEvery <= 0 {
		opts.CPEvery = 25
	}
	if opts.CheckEvery <= 0 {
		opts.CheckEvery = 100
	}

	spec, err := workloads.Scale(workloads.ScaleOptions{
		Topology: opts.Topology, Nodes: opts.Nodes, Seed: opts.Seed, HeavyTail: true,
	})
	if err != nil {
		tb.Fatalf("differential: generating %s/%d: %v", opts.Topology, opts.Nodes, err)
	}

	baseCfg := resources.Config{CPU: 4, MemMB: 8192}
	weightOf := func(p perfmodel.Profile) float64 {
		w, err := p.MeanRuntime(baseCfg, 1)
		if err != nil {
			tb.Fatalf("differential: weight for %s: %v", p.Name, err)
		}
		return w
	}

	patched, err := workflow.NewRunner(spec, coldRunnerOptions())
	if err != nil {
		tb.Fatalf("differential: compiling initial runner: %v", err)
	}

	weights := make(map[string]float64, spec.G.NumNodes())
	dynWeights := make(map[string]float64, spec.G.NumNodes())
	for id, p := range spec.Profiles {
		w := weightOf(p)
		weights[id] = w
		dynWeights[id] = w
	}
	dyn, err := dag.NewDynamic(spec.G.Clone(), dynWeights)
	if err != nil {
		tb.Fatalf("differential: building dynamic mirror: %v", err)
	}

	rng := rand.New(rand.NewPCG(opts.Seed, 0xd1ff))
	mutations := 0
	checkOrder := func(step int) {
		if err := dyn.VerifyOrder(); err != nil {
			tb.Fatalf("differential step %d: order invalid: %v", step, err)
		}
	}
	checkCP := func(step int) {
		gotPath, gotW, err := dyn.CriticalPath()
		if err != nil {
			tb.Fatalf("differential step %d: incremental critical path: %v", step, err)
		}
		wantPath, wantW, err := dag.CriticalPath(dyn.Graph(), weights)
		if err != nil {
			tb.Fatalf("differential step %d: full critical path: %v", step, err)
		}
		if gotW != wantW {
			tb.Fatalf("differential step %d: critical-path weight %v != full recompute %v", step, gotW, wantW)
		}
		if len(gotPath) != len(wantPath) {
			tb.Fatalf("differential step %d: critical path %d nodes != %d", step, len(gotPath), len(wantPath))
		}
		for i := range gotPath {
			if gotPath[i] != wantPath[i] {
				tb.Fatalf("differential step %d: critical paths diverge at %d: %q != %q",
					step, i, gotPath[i], wantPath[i])
			}
		}
	}
	checkPlan := func(step int) {
		rebuilt, err := workflow.NewRunner(patched.Spec().Clone(), coldRunnerOptions())
		if err != nil {
			tb.Fatalf("differential step %d: rebuild: %v", step, err)
		}
		if err := workflow.EquivalentPlans(patched, rebuilt); err != nil {
			tb.Fatalf("differential step %d: patched plan != rebuilt plan: %v", step, err)
		}
		a := patched.Base()
		got, err := patched.MeanEvaluate(a)
		if err != nil {
			tb.Fatalf("differential step %d: patched evaluate: %v", step, err)
		}
		want, err := rebuilt.MeanEvaluate(a)
		if err != nil {
			tb.Fatalf("differential step %d: rebuilt evaluate: %v", step, err)
		}
		if err := SameResult(got, want); err != nil {
			tb.Fatalf("differential step %d: patched vs rebuilt evaluation: %v", step, err)
		}
	}

	for step := 0; step < opts.Steps; step++ {
		d := nextDelta(tb, spec, rng)
		if d.Empty() {
			continue
		}
		mutations += len(d.RemoveEdges) + len(d.RemoveNodes) + len(d.AddNodes) +
			len(d.AddEdges) + len(d.Profiles)
		if err := patched.Patch(d); err != nil {
			tb.Fatalf("differential step %d: patch: %v", step, err)
		}
		replayDelta(tb, dyn, weights, d, weightOf)
		if step%opts.OrderEvery == 0 {
			checkOrder(step)
		}
		if step%opts.CPEvery == 0 {
			checkCP(step)
		}
		if step%opts.CheckEvery == opts.CheckEvery-1 {
			checkPlan(step)
		}
	}
	// Final full round: order, critical path, plan, and mirror consistency.
	checkOrder(opts.Steps)
	checkCP(opts.Steps)
	checkPlan(opts.Steps)
	if dyn.Graph().NumNodes() != spec.G.NumNodes() || dyn.Graph().NumEdges() != spec.G.NumEdges() {
		tb.Fatalf("differential: mirror diverged: %d/%d nodes, %d/%d edges",
			dyn.Graph().NumNodes(), spec.G.NumNodes(), dyn.Graph().NumEdges(), spec.G.NumEdges())
	}
	return mutations
}

// nextDelta draws one churn delta: node insertions, interior deletions, edge
// rewires, or profile reweights.
func nextDelta(tb testing.TB, spec *workflow.Spec, rng *rand.Rand) workflow.Delta {
	tb.Helper()
	var (
		d   workflow.Delta
		err error
	)
	switch rng.IntN(4) {
	case 0:
		d, err = workloads.AddRandomNodes(spec, rng, 1+rng.IntN(3))
	case 1:
		d, err = workloads.DeleteRandomNodes(spec, rng, 1+rng.IntN(3))
	case 2:
		d, err = workloads.RewireRandomEdges(spec, rng, 1+rng.IntN(4))
	default:
		ids := spec.G.Nodes()
		id := ids[rng.IntN(len(ids))]
		p := spec.Profiles[id]
		p.CPUWorkMS *= 0.5 + rng.Float64()
		d = workflow.Delta{Profiles: map[string]perfmodel.Profile{id: p}}
	}
	if err != nil {
		tb.Fatalf("differential: generating delta: %v", err)
	}
	return d
}

// replayDelta mirrors a delta into the incremental dag structure and the
// full-recompute weight table, using the same application order as
// Spec.Apply.
func replayDelta(tb testing.TB, dyn *dag.Dynamic, weights map[string]float64,
	d workflow.Delta, weightOf func(perfmodel.Profile) float64) {
	tb.Helper()
	for _, e := range d.RemoveEdges {
		if err := dyn.RemoveEdge(e.From, e.To); err != nil {
			tb.Fatalf("differential replay: remove edge %s->%s: %v", e.From, e.To, err)
		}
	}
	for _, id := range d.RemoveNodes {
		if err := dyn.RemoveNode(id); err != nil {
			tb.Fatalf("differential replay: remove node %s: %v", id, err)
		}
		delete(weights, id)
	}
	for _, n := range d.AddNodes {
		w := weightOf(n.Profile)
		if err := dyn.AddNode(n.ID, w); err != nil {
			tb.Fatalf("differential replay: add node %s: %v", n.ID, err)
		}
		weights[n.ID] = w
	}
	for _, e := range d.AddEdges {
		if err := dyn.AddEdge(e.From, e.To); err != nil {
			tb.Fatalf("differential replay: add edge %s->%s: %v", e.From, e.To, err)
		}
	}
	for id, p := range d.Profiles {
		w := weightOf(p)
		if err := dyn.SetWeight(id, w); err != nil {
			tb.Fatalf("differential replay: reweight %s: %v", id, err)
		}
		weights[id] = w
	}
}

// coldRunnerOptions builds runner options on a fresh keep-alive-free
// platform, making evaluation results a pure function of plan + assignment
// (no warm-pool history).
func coldRunnerOptions() workflow.RunnerOptions {
	o := simfaas.DefaultOptions()
	o.KeepAlive = false
	return workflow.RunnerOptions{HostCores: 96, Platform: simfaas.New(o)}
}

// SameResult compares two evaluation results: structure (OOM flag, failure
// node, per-node group/skip/OOM status and configs) must match exactly;
// float timings and costs must agree within relative 1e-9, since two plans
// with different dense numbering may sum floats in a different order.
func SameResult(a, b search.Result) error {
	relClose := func(x, y float64) bool {
		if x == y {
			return true
		}
		return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	}
	if a.OOM != b.OOM || a.Fail != b.Fail {
		return fmt.Errorf("OOM/Fail %v/%q vs %v/%q", a.OOM, a.Fail, b.OOM, b.Fail)
	}
	if !relClose(a.E2EMS, b.E2EMS) {
		return fmt.Errorf("E2E %v vs %v", a.E2EMS, b.E2EMS)
	}
	if !relClose(a.Cost, b.Cost) {
		return fmt.Errorf("cost %v vs %v", a.Cost, b.Cost)
	}
	if len(a.Nodes) != len(b.Nodes) {
		return fmt.Errorf("%d vs %d node results", len(a.Nodes), len(b.Nodes))
	}
	for id, na := range a.Nodes {
		nb, ok := b.Nodes[id]
		if !ok {
			return fmt.Errorf("node %q missing from second result", id)
		}
		if na.Group != nb.Group || na.Skipped != nb.Skipped || na.OOM != nb.OOM || na.Config != nb.Config {
			return fmt.Errorf("node %q structure differs: %+v vs %+v", id, na, nb)
		}
		if !relClose(na.StartMS, nb.StartMS) || !relClose(na.FinishMS, nb.FinishMS) ||
			!relClose(na.RuntimeMS, nb.RuntimeMS) || !relClose(na.Cost, nb.Cost) {
			return fmt.Errorf("node %q timings differ: %+v vs %+v", id, na, nb)
		}
	}
	// Group totals: a patched plan keeps dead groups and appends new ones,
	// so compare by name, through the accessors.
	groups := make(map[string]bool)
	for _, na := range a.Nodes {
		groups[na.Group] = true
	}
	for g := range groups {
		if ca, cb := a.GroupCost(g), b.GroupCost(g); !relClose(ca, cb) {
			return fmt.Errorf("group %q cost %v vs %v", g, ca, cb)
		}
		if sa, sb := a.GroupSteadyCost(g), b.GroupSteadyCost(g); !relClose(sa, sb) {
			return fmt.Errorf("group %q steady cost %v vs %v", g, sa, sb)
		}
	}
	return nil
}
