package workflow_test

import (
	"bytes"
	"testing"

	"aarc/internal/jsonx"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// BenchmarkSpecHitPath times the per-request spec layers of a configure
// hit on a generated 1000-node layered spec: DecodeSpec (which
// validates), ScanSpec (the request decoder's build, which does not),
// Validate alone, and CanonicalJSON (which validates: the one check an
// HTTP configure makes).
func BenchmarkSpecHitPath(b *testing.B) {
	spec, err := workloads.Scale(workloads.ScaleOptions{Topology: workloads.TopologyLayered, Nodes: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var body bytes.Buffer
	if err := workflow.EncodeSpec(&body, spec); err != nil {
		b.Fatal(err)
	}
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := workflow.DecodeSpec(bytes.NewReader(body.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := workflow.ScanSpec(jsonx.NewScanner(body.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Validate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := spec.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Canonical", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := workflow.CanonicalJSON(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
