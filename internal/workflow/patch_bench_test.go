package workflow

import (
	"testing"

	"aarc/internal/perfmodel"
	"aarc/internal/simfaas"
)

// bench10kSpec is the shared 10k-node layered-random spec (built once per
// process; benchmarks clone before mutating).
var bench10kSpec = patchSpec(10_000, 42)

func BenchmarkPlanCompile10k(b *testing.B) {
	platform := simfaas.New(simfaas.DefaultOptions())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compilePlan(bench10kSpec, platform); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewRunner10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewRunner(bench10kSpec, RunnerOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalPatch measures one add-edge + one remove-edge patch
// (two Runner.Patch calls per op) against the 10k-node plan — the
// incremental path a full recompile would otherwise pay BenchmarkPlanCompile10k
// for on every edit.
func BenchmarkIncrementalPatch(b *testing.B) {
	spec := bench10kSpec.Clone()
	r, err := NewRunner(spec, RunnerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ids := spec.G.Nodes()
	u := ids[len(ids)/2]
	v := ""
	for off := 1; off < 200; off++ {
		c := ids[len(ids)/2+off]
		if !hasEdge(spec.G, u, c) && !spec.G.HasPath(u, c) && !spec.G.HasPath(c, u) {
			v = c
			break
		}
	}
	if v == "" {
		b.Fatal("no unrelated node pair found")
	}
	add := Delta{AddEdges: []Edge{{From: u, To: v}}}
	rem := Delta{RemoveEdges: []Edge{{From: u, To: v}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Patch(add); err != nil {
			b.Fatal(err)
		}
		if err := r.Patch(rem); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalPatchReweight measures a single-profile update patch,
// the cheapest edit (no topology change, just the validity sweep).
func BenchmarkIncrementalPatchReweight(b *testing.B) {
	spec := bench10kSpec.Clone()
	r, err := NewRunner(spec, RunnerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	id := spec.G.Nodes()[5000]
	d1 := Delta{Profiles: map[string]perfmodel.Profile{id: flatProfile(id, 1111)}}
	d2 := Delta{Profiles: map[string]perfmodel.Profile{id: flatProfile(id, 2222)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := d1
		if i%2 == 1 {
			d = d2
		}
		if err := r.Patch(d); err != nil {
			b.Fatal(err)
		}
	}
}
