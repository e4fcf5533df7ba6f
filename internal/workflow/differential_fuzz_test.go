package workflow

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"aarc/internal/dag"
	"aarc/internal/perfmodel"
	"aarc/internal/resources"
)

// decodeQuirks are inputs on which encoding/json's behaviour is easy to
// get wrong by hand; DecodeSpec must accept and reject exactly as the
// reflection decoder does, and decode the accepted ones identically.
var decodeQuirks = []string{
	// Case-folded keys, including non-ASCII folds (ſ folds to S, the
	// Kelvin sign to K).
	`{"NAME":"x","ſlo_ms":1000,"Nodes":[{"ID":"a","PROFILE":{"Footprint_MB":256,"min_mem_mb":128,"pressure_K":1}}],"BASE":{"CPU":1,"mem_MB":512}}`,
	// Last duplicate wins; repeated objects merge into the earlier value.
	`{"name":"x","name":"y","slo_ms":5,"slo_ms":1000,"nodes":[{"id":"a","profile":{"cpu_work_ms":5,"footprint_mb":256},"profile":{"min_mem_mb":128}}],"base":{"cpu":1},"base":{"mem_mb":512}}`,
	// A repeated array decodes over the previous elements, and elements
	// past a shorter repeat come back when a longer one follows.
	`{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}},{"id":"b","profile":{"footprint_mb":256,"min_mem_mb":128}}],"nodes":[{"group":"g"}],"nodes":[{},{}],"edges":[["a","b"]],"base":{"cpu":1,"mem_mb":512}}`,
	`{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}},{"id":"b","profile":{"footprint_mb":256,"min_mem_mb":128}},{"id":"c","profile":{"footprint_mb":256,"min_mem_mb":128}}],"edges":[["a","b"],["a","c"]],"edges":[[null,"c"],["b",null]],"base":{"cpu":1,"mem_mb":512}}`,
	`{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}}],"nodes":[],"base":{"cpu":1,"mem_mb":512}}`,
	// null members leave values alone, or zero pointers and slices.
	`{"name":"x","slo_ms":1000,"nodes":[{"id":"a","group":null,"profile":{"footprint_mb":256,"min_mem_mb":128,"io_ms":null,"input_sensitive":null}}],"edges":null,"base":{"cpu":1,"mem_mb":512},"limits":null,"name":null}`,
	`{"name":"x","slo_ms":1000,"nodes":[null,{"id":"a","profile":null}],"edges":[null],"base":null}`,
	`{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}}],"base":{"cpu":1,"mem_mb":512},"limits":{"min_cpu":0.5,"max_cpu":8,"cpu_step":0.5},"limits":{"min_mem_mb":128,"max_mem_mb":4096,"mem_step_mb":64}}`,
	`{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}}],"base":{"cpu":1,"mem_mb":512},"limits":{"min_cpu":0.5},"limits":null}`,
	// Escapes, surrogate pairs, lone surrogates and invalid UTF-8.
	`{"name":"x\n\"<&>\u2028","slo_ms":1000,"nodes":[{"id":"\ud83d\ude00","profile":{"footprint_mb":256,"min_mem_mb":128}},{"id":"\ud800","profile":{"footprint_mb":256,"min_mem_mb":128}},{"id":"\ud800A","profile":{"footprint_mb":256,"min_mem_mb":128}},{"id":"é","profile":{"footprint_mb":256,"min_mem_mb":128}}],"edges":[["\ud83d\ude00","\ufffd"],["\ufffd","\ufffdA"],["\ufffdA","é"]],"base":{"cpu":1,"mem_mb":512}}`,
	"{\"name\":\"x\xff\xfe\",\"slo_ms\":1000,\"nodes\":[{\"id\":\"a\xc3\",\"profile\":{\"footprint_mb\":256,\"min_mem_mb\":128}}],\"base\":{\"cpu\":1,\"mem_mb\":512}}",
	`{"name":"x\'y","slo_ms":1000}`,
	"{\"name\":\"x\ty\",\"slo_ms\":1000}",
	`{"name":"\uZZZZ"}`,
	// [2]string edges: a missing endpoint is zeroed, extra ones are
	// skipped without a type check.
	`{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}},{"id":"b","profile":{"footprint_mb":256,"min_mem_mb":128}}],"edges":[["a"]],"base":{"cpu":1,"mem_mb":512}}`,
	`{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}},{"id":"b","profile":{"footprint_mb":256,"min_mem_mb":128}}],"edges":[["a","b",3,{"k":[null,true]}]],"base":{"cpu":1,"mem_mb":512}}`,
	`{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}},{"id":"b","profile":{"footprint_mb":256,"min_mem_mb":128}}],"edges":[["a",2]],"base":{"cpu":1,"mem_mb":512}}`,
	`{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}},{"id":"b","profile":{"footprint_mb":256,"min_mem_mb":128}}],"edges":["a"],"base":{"cpu":1,"mem_mb":512}}`,
	// Numbers: out of range, negative zero, leading zeros, bad forms.
	`{"name":"x","slo_ms":1e400}`,
	`{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"cpu_work_ms":-0,"io_ms":1e-400,"footprint_mb":256,"min_mem_mb":128}}],"base":{"cpu":1,"mem_mb":512}}`,
	`{"name":"x","slo_ms":01}`,
	`{"name":"x","slo_ms":1.}`,
	`{"name":"x","slo_ms":-}`,
	`{"name":"x","slo_ms":1e+}`,
	`{"name":"x","slo_ms":"1000"}`,
	`{"name":"x","slo_ms":true}`,
	`{"name":5}`,
	`{"name":"x","nodes":{}}`,
	// Unknown fields, at the top and nested.
	`{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}}],"base":{"cpu":1,"mem_mb":512},"extra":1}`,
	`{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128,"turbo":true}}],"base":{"cpu":1,"mem_mb":512}}`,
	// Bytes after the first value are never read.
	`{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}}],"base":{"cpu":1,"mem_mb":512}} trailing garbage {`,
	`{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}}],"base":{"cpu":1,"mem_mb":512}}}`,
	// Syntax errors and non-object documents.
	``, ` `, `null`, `nul`, `[]`, `"x"`, `5`, `{`, `{"name"}`, `{"name":"x",}`, `{,}`, `{"a":1 "b":2}`, `{"name":"x"]`,
	`{"name":"x","slo_ms":1000,"nodes":[{"id":"a"},]}`,
}

// FuzzDecodeSpecDifferential runs DecodeSpec against the reflection
// decoder it replaced: both must reject the same inputs, and on accepted
// ones give equal specs and equal canonical bytes.
func FuzzDecodeSpecDifferential(f *testing.F) {
	f.Add(sampleSpecJSON)
	for _, q := range decodeQuirks {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkDecodeParity(t, input)
	})
}

func TestDecodeSpecQuirks(t *testing.T) {
	checkDecodeParity(t, sampleSpecJSON)
	for _, q := range decodeQuirks {
		checkDecodeParity(t, q)
	}
	// Nesting past encoding/json's limit inside a skipped value.
	deep := strings.Repeat("[", 10001) + strings.Repeat("]", 10001)
	checkDecodeParity(t, `{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}},{"id":"b","profile":{"footprint_mb":256,"min_mem_mb":128}}],"edges":[["a","b",`+deep+`]],"base":{"cpu":1,"mem_mb":512}}`)
	shallow := strings.Repeat("[", 9990) + strings.Repeat("]", 9990)
	checkDecodeParity(t, `{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}},{"id":"b","profile":{"footprint_mb":256,"min_mem_mb":128}}],"edges":[["a","b",`+shallow+`]],"base":{"cpu":1,"mem_mb":512}}`)
}

func checkDecodeParity(t *testing.T, input string) {
	t.Helper()
	got, gerr := DecodeSpec(strings.NewReader(input))
	want, werr := decodeSpecReflect(strings.NewReader(input))
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("DecodeSpec err = %v, reflection decoder err = %v\ninput: %q", gerr, werr, input)
	}
	if gerr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeSpec and the reflection decoder disagree\ninput: %q\ngot:  %+v\nwant: %+v", input, got, want)
	}
	gc, err := CanonicalJSON(got)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := canonicalJSONReflect(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gc, wc) {
		t.Fatalf("canonical bytes differ\ninput: %q\ngot:  %s\nwant: %s", input, gc, wc)
	}
}

// FuzzCanonicalJSONDifferential runs the append encoder against
// json.Marshal of the canonicalSpec: strings go through escaping, floats
// through formatting (the base entry of an extra group is not validated,
// so any float64 reaches the encoder there), and both must fail together
// on values json.Marshal cannot encode.
func FuzzCanonicalJSONDifferential(f *testing.F) {
	f.Add("wf", "a", "", 1000.0, 0.0, 0.0, 0.0)
	f.Add("<&>\u2028\u2029", "\xff\x00\"\\", "grp\t", 1e21, 1e-7, 123456789.125, -0.0)
	f.Add("x", "\xed\xa0\x80", "a", 1e-6, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64)
	f.Add("x", "n", "g", 1.5, math.NaN(), math.Inf(1), 2.0)
	f.Add("x", "n", "n/2", 0.1, 999999999999999999999.0, 1e20, -1e-7)
	f.Fuzz(func(t *testing.T, name, id, group string, a, b, c, d float64) {
		spec, ok := canonFuzzSpec(name, id, group, a, b, c, d)
		if !ok {
			return
		}
		got, gerr := CanonicalJSON(spec)
		want, werr := canonicalJSONReflect(spec)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("CanonicalJSON err = %v, json.Marshal err = %v", gerr, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("canonical bytes differ\ngot:  %s\nwant: %s", got, want)
		}
	})
}

// canonFuzzSpec builds a two-node spec from fuzz values; ok is false when
// the IDs cannot form a graph.
func canonFuzzSpec(name, id, group string, a, b, c, d float64) (*Spec, bool) {
	g := dag.New()
	second := id + "/2"
	if g.AddNode(id) != nil || g.AddNode(second) != nil || g.AddEdge(id, second) != nil {
		return nil, false
	}
	groups := map[string]string{}
	if group != "" {
		groups[second] = group
	}
	spec := &Spec{
		Name: name,
		G:    g,
		Profiles: map[string]perfmodel.Profile{
			id: {Name: id, CPUWorkMS: b, ParallelFrac: 0.5, MaxParallel: c, IOMS: d,
				FootprintMB: 256, MinMemMB: 128},
			second: {Name: second, CPUWorkMS: a, PressureK: c, NoiseStd: 0.01,
				FootprintMB: 512, MinMemMB: 128, InputSensitive: true},
		},
		Groups: groups,
		SLOMS:  a,
		Limits: resources.DefaultLimits(),
	}
	spec.Base = resources.Uniform(spec.FunctionGroups(), resources.Config{CPU: 4, MemMB: 4096})
	spec.Base[group+"~extra"] = resources.Config{CPU: d, MemMB: b}
	return spec, true
}
