package workflow

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aarc/internal/jsonx"
)

// freshScan decodes b with a doc no earlier decode has touched.
func freshScan(b []byte) (*Spec, error) {
	var d specDoc
	s := jsonx.NewScanner(b)
	d.scan(s)
	if err := s.Err(); err != nil {
		return nil, err
	}
	return d.build()
}

func sameSpec(t *testing.T, what string, got, want *Spec, gerr, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s: err %v, fresh doc err %v", what, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: spec differs from a fresh doc's\ngot:  %+v\nwant: %+v", what, got, want)
	}
}

// TestPooledDecodeMatchesFreshDoc decodes a 1000-node spec and then
// 3-node specs whose repeated "nodes" and "edges" members read elements
// past the length of the first: a reused doc must hold none of the big
// spec's nodes or edges there, only the zero values a fresh doc has.
func TestPooledDecodeMatchesFreshDoc(t *testing.T) {
	const prof = `"profile":{"cpu_work_ms":100,"footprint_mb":256,"min_mem_mb":128}`
	small := []string{
		// Merges to a valid a -> b -> c.
		`{"name":"s","slo_ms":60000,"nodes":[{"id":"a",` + prof + `}],"edges":[["a","b"]],` +
			`"nodes":[{"id":"a"},{"id":"b",` + prof + `},{"id":"c",` + prof + `}],"edges":[null,["b","c"]],"base":{"cpu":2,"mem_mb":1024}}`,
		// b and c get zero profiles and the second edge zero endpoints.
		`{"name":"s","slo_ms":60000,"nodes":[{"id":"a",` + prof + `}],"nodes":[{"id":"a"},{"id":"b"},{"id":"c"}],` +
			`"edges":[["a","b"]],"edges":[null,null],"base":{"cpu":2,"mem_mb":1024}}`,
		`{"name":"s","slo_ms":60000,"nodes":[null,null,null],"edges":[null,null,null,null],"base":{"cpu":2,"mem_mb":1024}}`,
	}
	var b bytes.Buffer
	if err := EncodeSpec(&b, layeredSpec(1000, 3)); err != nil {
		t.Fatal(err)
	}
	// The second big body repeats its members shorter, leaving 999 nodes
	// and most edges past the length when its decode ends.
	enc := bytes.TrimSpace(b.Bytes())
	bigs := [][]byte{enc, append(enc[:len(enc)-1:len(enc)-1], `,"nodes":[{}],"edges":[null]}`...)}
	var d specDoc
	for i, body := range small {
		for j, big := range bigs {
			for _, reused := range []string{"reset doc", "ScanSpec"} {
				want, werr := freshScan([]byte(body))
				var got *Spec
				var gerr error
				if reused == "reset doc" {
					d.scan(jsonx.NewScanner(big))
					_, _ = d.build()
					d.reset()
					d.scan(jsonx.NewScanner([]byte(body)))
					got, gerr = d.build()
					d.reset()
				} else {
					_, _ = ScanSpec(jsonx.NewScanner(big))
					got, gerr = ScanSpec(jsonx.NewScanner([]byte(body)))
				}
				sameSpec(t, fmt.Sprintf("small spec %d after 1000-node body %d, %s", i, j, reused), got, want, gerr, werr)
			}
		}
	}
	// The reset doc keeps its arrays but holds no reference into a body.
	d.scan(jsonx.NewScanner(bigs[1]))
	d.reset()
	if cap(d.nodes) < 1000 || cap(d.edges) < 1000 {
		t.Errorf("reset dropped the arrays: cap %d nodes, %d edges", cap(d.nodes), cap(d.edges))
	}
	for _, n := range d.nodes[:cap(d.nodes)] {
		if n.id != nil || n.group != nil {
			t.Fatal("reset doc still references a body")
		}
	}
}

// TestScanSpecConcurrent decodes different specs from several goroutines
// at once (run it under -race): every result must equal its own spec's
// sequential decode.
func TestScanSpecConcurrent(t *testing.T) {
	var bodies [][]byte
	for i, n := range []int{3, 40, 1000, 7, 250} {
		var b bytes.Buffer
		if err := EncodeSpec(&b, layeredSpec(n, uint64(i))); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b.Bytes())
	}
	want := make([][]byte, len(bodies))
	for i, b := range bodies {
		spec, err := ScanSpec(jsonx.NewScanner(b))
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = CanonicalJSON(spec); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1))
			for range 40 {
				k := rng.IntN(len(bodies))
				spec, err := ScanSpec(jsonx.NewScanner(bodies[k]))
				if err == nil {
					var got []byte
					if got, err = CanonicalJSON(spec); err == nil && !bytes.Equal(got, want[k]) {
						err = fmt.Errorf("spec %d decoded differently under concurrency", k)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDecodeSpecEdgeErrorOrder: the decoder resolves edge endpoints
// before it inserts the batch, yet reports the first bad edge exactly as
// one AddEdge per edge does, unknown endpoints among duplicates and self
// loops included.
func TestDecodeSpecEdgeErrorOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	ids := []string{"a", "b", "c", "d", "zz"}
	var nodes []string
	for _, id := range ids[:4] {
		nodes = append(nodes, `{"id":"`+id+`","profile":{"footprint_mb":256,"min_mem_mb":128}}`)
	}
	for trial := 0; trial < 500; trial++ {
		var edges []string
		for i := rng.IntN(10); i > 0; i-- {
			edges = append(edges, `["`+ids[rng.IntN(len(ids))]+`","`+ids[rng.IntN(len(ids))]+`"]`)
		}
		body := `{"name":"x","slo_ms":1000,"nodes":[` + strings.Join(nodes, ",") +
			`],"edges":[` + strings.Join(edges, ",") + `],"base":{"cpu":1,"mem_mb":512}}`
		_, gerr := DecodeSpec(strings.NewReader(body))
		_, werr := decodeSpecReflect(strings.NewReader(body))
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("edges %v: DecodeSpec err %v, one AddEdge per edge: %v", edges, gerr, werr)
		}
	}
}
