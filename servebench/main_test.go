package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.99, 7},
		{[]float64{5, 1, 4, 2, 3}, 0.5, 3},
		{[]float64{5, 1, 4, 2, 3}, 0, 1},
		{[]float64{5, 1, 4, 2, 3}, 1, 5},
		{[]float64{5, 1, 4, 2, 3}, 0.25, 2},
		{[]float64{4, 3, 2, 1}, 0.5, 2.5},
		{[]float64{10, 20}, 0.99, 19.9},
	}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), c.xs...), c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	// 1..100: the 99th percentile interpolates between 99 and 100.
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := percentile(xs, 0.99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("p99 of 1..100 = %v, want 99.01", got)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	if got := h.quantileMS(0.5); got != 0 {
		t.Errorf("empty histogram: p50 = %v, want 0", got)
	}
	var xs []float64
	for i := 1; i <= 10000; i++ {
		d := time.Duration(i) * time.Microsecond
		h.add(d)
		xs = append(xs, float64(d)/1e6)
	}
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99} {
		got, want := h.quantileMS(q), percentile(xs, q)
		if math.Abs(got-want) > 0.011*want {
			t.Errorf("p%v = %v ms, exact %v ms: more than 1.1%% off", q*100, got, want)
		}
	}
	var one hist
	one.add(3 * time.Millisecond)
	if got := one.quantileMS(0.99); math.Abs(got-3) > 0.011*3 {
		t.Errorf("one 3 ms sample: p99 = %v ms", got)
	}
	var merged hist
	merged.merge(&h)
	merged.merge(&one)
	if merged.n != h.n+1 {
		t.Errorf("merged count %d, want %d", merged.n, h.n+1)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 50, End: 70}}, 70},
		{"overlapping count once", []span{{Start: 10, End: 30}, {Start: 20, End: 40}}, 70},
		{"nested", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"clipped to the parent", []span{{Start: -5, End: 5}, {Start: 90, End: 120}}, 85},
		{"outside the parent", []span{{Start: 100, End: 150}, {Start: -20, End: 0}}, 100},
		{"covering", []span{{Start: -1, End: 101}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestSpanFileRoundTrip checks that the per-layer metrics computed from
// the written span file equal those computed from the spans in memory.
func TestSpanFileRoundTrip(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "request", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Req: 1, Name: "http.post_miss", Start: 0, End: 400, Attrs: map[string]float64{"searches": 1, "misses": 1, "samples": 3}},
		{ID: 3, Parent: 2, Req: 1, Name: "store.get", Start: 10, End: 20},
		{ID: 4, Parent: 1, Req: 1, Name: "search.search", Start: 500, End: 900, Attrs: map[string]float64{"evaluate_calls": 2, "invocations": 8, "cold_starts": 2}},
		{ID: 5, Parent: 4, Req: 1, Name: "workflow.evaluate", Start: 500, End: 600},
		{ID: 6, Parent: 4, Req: 1, Name: "workflow.evaluate", Start: 700, End: 800},
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	back, err := readSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	got, want := perLayer(back, baseline{}), perLayer(spans, baseline{})
	for name, m := range want {
		if got[name] != m {
			t.Errorf("%s: from file %v, in memory %v", name, got[name], m)
		}
	}
	checks := map[string]float64{
		"core.self_us":                 0.2, // 400 ns minus two 100 ns evaluations
		"workflow.evaluate_calls":      2,
		"simfaas.invocations_per_eval": 4,
		"simfaas.cold_start_ratio":     0.25,
		"store.gets_per_req":           1,
		"service.searches_per_req":     1,
		"search.samples":               3,
	}
	for name, v := range checks {
		if math.Abs(got[name].Value-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name].Value, v)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json this test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeEmitsBenchmarkMetrics runs every workload briefly, untraced
// and traced, and checks that the runs pass their output checks and
// emit exactly the metrics BENCHMARK.json names, with its units.
func TestSmokeEmitsBenchmarkMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark runs %v", names, workloadNames)
	}
	for i := range names {
		if names[i] != workloadNames[i] {
			t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark runs %v", names, workloadNames)
		}
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: name,
				seed:     7,
				phase:    200 * time.Millisecond,
				setups:   1,
				trace:    traced,
				conns:    2,
				spans:    filepath.Join(t.TempDir(), "spans.jsonl"),
			}
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, out.Correct, out.Attempted, out.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for n, unit := range want {
				m, ok := out.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", name, traced, n)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", name, traced, n, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", name, traced, n, m.Value)
				}
			}
			for n := range out.Metrics {
				if _, ok := want[n]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", name, traced, n)
				}
			}
		}
	}
}
