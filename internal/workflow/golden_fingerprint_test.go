package workflow_test

import (
	"testing"

	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// goldenFingerprints pins workflow.Fingerprint for the paper workloads and
// one 1000-node generated spec per topology family (seed 7). The values
// are part of the cache-key contract: every persisted recommendation is
// addressed by them, so a change here orphans every stored entry. Any
// rewrite of the decoder or the canonical encoder must keep them; a
// deliberate format change bumps a fingerprint version instead.
var goldenFingerprints = map[string]string{
	"chatbot":        "sha256:efee4eed4b22f8ab03c1bba18af5582e1daeb50fa11d0dbbcb4fb5c162bc46be",
	"ml-pipeline":    "sha256:e71b371f03eff1f159062489244af5f16808ea34907e767a562dcf26247e642e",
	"video-analysis": "sha256:6ddfcf87801803f686e370e846305d8288851f53eb7931001ec061df4671a4c4",
	"layered@1000":   "sha256:6ef55e1ff1893dc97c9b719046070e6b384d89f619989e6bf9403fed8a8ed324",
	"fanout@1000":    "sha256:e5c13651ac4bcd4e9eff99ffd1e0e2e9b6a5416ca112aadd560b9af2812bc85f",
	"chain@1000":     "sha256:bedf0d06ecbc134ec969b3c768d2630c629e538f4e97ad3c311041324c6913e8",
	"diamond@1000":   "sha256:ab5c7c4ac3616c6360568289ad8cb1b251c8e44328ab6a65110d0b5dac3769c3",
	"random@1000":    "sha256:ced1e33f32514b9dc74898076237a78d282fe800da666b2c4b7eb6fc84db326b",
}

func TestGoldenFingerprints(t *testing.T) {
	specs := map[string]*workflow.Spec{}
	for _, name := range []string{"chatbot", "ml-pipeline", "video-analysis"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs[name] = spec
	}
	for _, topo := range workloads.Topologies() {
		spec, err := workloads.Scale(workloads.ScaleOptions{Topology: topo, Nodes: 1000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		specs[string(topo)+"@1000"] = spec
	}
	for name, want := range goldenFingerprints {
		spec, ok := specs[name]
		if !ok {
			t.Fatalf("no spec for golden %q", name)
		}
		got, err := workflow.Fingerprint(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: fingerprint %s, want %s", name, got, want)
		}
	}
}
