package workflow

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"aarc/internal/dag"
	"aarc/internal/perfmodel"
	"aarc/internal/resources"
	"aarc/internal/simfaas"
)

// flatProfile returns a small valid profile for generated test specs.
func flatProfile(name string, workMS float64) perfmodel.Profile {
	return perfmodel.Profile{
		Name: name, CPUWorkMS: workMS, ParallelFrac: 0.5, MaxParallel: 4,
		IOMS: 100, FootprintMB: 512, MinMemMB: 256, PressureK: 1, NoiseStd: 0.01,
	}
}

// layeredSpec builds a connected layered-random spec with n nodes spread
// over 257 groups (package-internal so benchmarks can reach compilePlan).
func layeredSpec(n int, seed uint64) *Spec {
	rng := rand.New(rand.NewPCG(seed, 0xbe9c))
	g := dag.NewWithCapacity(n)
	profiles := make(map[string]perfmodel.Profile, n)
	groups := make(map[string]string, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%05d", i)
		g.MustAddNode(id)
		profiles[id] = flatProfile(id, 500+float64(rng.IntN(2000)))
		groups[id] = fmt.Sprintf("g%03d", i%257)
	}
	ids := g.Nodes()
	for i := 1; i < n; i++ {
		g.MustAddEdge(ids[rng.IntN(i)], ids[i])
		for k := 0; k < 3; k++ {
			_ = g.AddEdge(ids[rng.IntN(i)], ids[i]) // ignore duplicates
		}
	}
	spec := &Spec{
		Name:     fmt.Sprintf("layered-%d-%d", n, seed),
		G:        g,
		Profiles: profiles,
		Groups:   groups,
		SLOMS:    1e9,
		Limits:   resources.DefaultLimits(),
	}
	spec.Base = resources.Uniform(spec.FunctionGroups(), resources.Config{CPU: 4, MemMB: 8192})
	return spec
}

// bench10kSpec is the shared 10k-node layered-random spec (built once per
// process).
var bench10kSpec = layeredSpec(10_000, 42)

// BenchmarkPlanCompile10k measures compilePlan at 10k nodes: the price of
// every spec edit, since an edited spec is always compiled fresh.
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
