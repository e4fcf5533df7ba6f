package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"aarc"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// workload generates one named traffic mix from the workload seed and
// checks every response to it.
type workload interface {
	// options are the server-side settings the workload adds to aarcd's
	// defaults.
	options() []aarc.Option
	// setup sends the warm-up requests to a freshly started server.
	setup(e *env) error
	// next builds the i-th request of connection c.
	next(c, i int) request
	// check verifies a response of connection c; a non-nil error fails
	// the request.
	check(c int, req *request, resp *response) error
	// finish runs the checks that need the whole timed phase: completed
	// is the number of requests it sent.
	finish(e *env, completed int) error
	// sloFailures names the family of each generated spec the service
	// could not configure at setup (only large-spec has any).
	sloFailures() []string
}

// The workloads, in the order BENCHMARK.json lists them.
var workloadNames = []string{"warm-hit", "cold-search", "large-spec"}

func newWorkload(name string, seed uint64, conns int) (workload, error) {
	switch name {
	case "warm-hit":
		return newWarmHit(seed)
	case "cold-search":
		return newColdSearch(seed, conns)
	case "large-spec":
		return newLargeSpec(seed, conns)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, ", "))
}

// paperSpecs encodes the three paper workloads in the DecodeSpec format
// that POST /v1/configure takes inline.
func paperSpecs() ([][]byte, error) {
	var out [][]byte
	for _, spec := range workloads.All() {
		var b bytes.Buffer
		if err := workflow.EncodeSpec(&b, spec); err != nil {
			return nil, fmt.Errorf("encoding %s: %w", spec.Name, err)
		}
		out = append(out, bytes.TrimSuffix(b.Bytes(), []byte("\n")))
	}
	return out, nil
}

// specBody wraps an inline spec into a configure request body.
func specBody(spec []byte) []byte {
	return append(append([]byte(`{"spec":`), spec...), '}')
}

// fingerprintOf extracts the "fingerprint" field of a recommendation body.
func fingerprintOf(body []byte) (string, error) {
	const key = `"fingerprint":"`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return "", errors.New("response has no fingerprint")
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return "", errors.New("response has an unterminated fingerprint")
	}
	return string(rest[:j]), nil
}

// configureOnce sends one setup POST and returns the response with its
// body copied out of the read buffer.
func configureOnce(e *env, body []byte) (response, error) {
	var buf bytes.Buffer
	resp, err := e.do(&request{body: body}, &buf)
	if err != nil {
		return response{}, err
	}
	resp.body = bytes.Clone(resp.body)
	return resp, nil
}

// searchMiss runs one setup search and returns the stored body and its
// fingerprint.
func searchMiss(e *env, body []byte) ([]byte, string, error) {
	resp, err := configureOnce(e, body)
	if err != nil {
		return nil, "", err
	}
	if resp.status != 200 || resp.cache != "miss" {
		return nil, "", fmt.Errorf("setup search: status %d cache %q: %s", resp.status, resp.cache, resp.body)
	}
	fp, err := fingerprintOf(resp.body)
	return resp.body, fp, err
}

// expectHit checks a response that must be a byte-identical store hit.
func expectHit(resp *response, want []byte) error {
	if resp.status != 200 {
		return fmt.Errorf("status %d: %s", resp.status, resp.body)
	}
	if resp.cache != "hit" {
		return fmt.Errorf("X-Aarc-Cache %q, want hit", resp.cache)
	}
	if !bytes.Equal(resp.body, want) {
		return errors.New("body differs from the setup response for its fingerprint")
	}
	return nil
}

// expectSearches checks that the service ran exactly want searches in
// total.
func expectSearches(e *env, want int64) error {
	if got := e.svc.Stats().Searches; got != want {
		return fmt.Errorf("service ran %d searches, want %d", got, want)
	}
	return nil
}

// warmHit is the hit path: three POSTs of a byte-identical inline spec
// for every fingerprint GET, rotating over the three paper workloads,
// each searched once at setup.
type warmHit struct {
	specs    [][]byte
	bodies   [][]byte
	want     [][]byte // setup response per spec
	fps      []string
	offset   int // rotation start, from the seed
	searches int64
}

func newWarmHit(seed uint64) (*warmHit, error) {
	specs, err := paperSpecs()
	if err != nil {
		return nil, err
	}
	w := &warmHit{specs: specs, offset: int(seed % 12)}
	for _, s := range specs {
		w.bodies = append(w.bodies, specBody(s))
	}
	return w, nil
}

func (w *warmHit) options() []aarc.Option { return nil }

func (w *warmHit) setup(e *env) error {
	for _, b := range w.bodies {
		body, fp, err := searchMiss(e, b)
		if err != nil {
			return err
		}
		w.want = append(w.want, body)
		w.fps = append(w.fps, fp)
	}
	w.searches = e.svc.Stats().Searches
	return nil
}

// next cycles with period 12: 3 and 4 are coprime, so every workload gets
// three POSTs and one GET per cycle.
func (w *warmHit) next(c, i int) request {
	n := w.offset + c + i
	item := n % len(w.specs)
	if n%4 == 3 {
		return request{kind: getFP, item: item, fp: w.fps[item]}
	}
	return request{kind: postHit, item: item, body: w.bodies[item], spec: w.specs[item]}
}

func (w *warmHit) check(_ int, req *request, resp *response) error {
	return expectHit(resp, w.want[req.item])
}

func (w *warmHit) finish(e *env, _ int) error { return expectSearches(e, w.searches) }

func (w *warmHit) sloFailures() []string { return nil }

// coldSearch is the miss path: the paper workloads with a fresh request
// seed per request, so every request is a new fingerprint and a full
// search, and the 128-entry store evicts steadily.
type coldSearch struct {
	specs    [][]byte
	seed     uint64
	conns    int
	per      []coldConn
	searches int64
}

// coldConn is one connection's state: its body buffer, the leading 64
// bits of the fingerprints it was served (a compact record, so the
// benchmark's own memory barely grows during the phase), and a few
// responses kept for the independent re-check.
type coldConn struct {
	buf  []byte
	fps  []uint64
	kept []keptResponse
}

type keptResponse struct {
	item int
	seed uint64
	body []byte
}

const (
	keepEvery = 64 // keep every keepEvery-th response of a connection
	keepMax   = 8  // and at most this many per connection
)

func newColdSearch(seed uint64, conns int) (*coldSearch, error) {
	specs, err := paperSpecs()
	if err != nil {
		return nil, err
	}
	return &coldSearch{specs: specs, seed: seed, conns: conns, per: make([]coldConn, conns)}, nil
}

func (w *coldSearch) options() []aarc.Option { return nil }

// setup searches each spec once at the service seed, so the timed phase
// starts on a service that has run the miss path before.
func (w *coldSearch) setup(e *env) error {
	for _, s := range w.specs {
		if _, _, err := searchMiss(e, specBody(s)); err != nil {
			return err
		}
	}
	w.searches = e.svc.Stats().Searches
	return nil
}

// mix64 is the SplitMix64 finalizer, a bijection on uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// requestSeed draws the n-th request seed of the run. Distinct n below
// 2^24 give distinct seeds, because mix64 is a bijection.
func (w *coldSearch) requestSeed(n int) uint64 {
	return mix64(w.seed<<24 + uint64(n))
}

func (w *coldSearch) next(c, i int) request {
	n := i*w.conns + c
	st := &w.per[c]
	item := n % len(w.specs)
	seed := w.requestSeed(n)
	st.buf = append(st.buf[:0], `{"spec":`...)
	st.buf = append(st.buf, w.specs[item]...)
	st.buf = append(st.buf, `,"seed":`...)
	st.buf = strconv.AppendUint(st.buf, seed, 10)
	st.buf = append(st.buf, '}')
	return request{kind: postMiss, item: item, body: st.buf, spec: w.specs[item], seed: seed, seeded: true}
}

func (w *coldSearch) check(c int, req *request, resp *response) error {
	if resp.status != 200 {
		return fmt.Errorf("status %d: %s", resp.status, resp.body)
	}
	if resp.cache != "miss" {
		return fmt.Errorf("X-Aarc-Cache %q, want miss", resp.cache)
	}
	if !bytes.Contains(resp.body, []byte(`"slo_compliant":true`)) {
		return errors.New("recommendation is not SLO-compliant")
	}
	fp, err := fingerprintOf(resp.body)
	if err != nil {
		return err
	}
	if len(fp) < len("sha256:")+16 {
		return fmt.Errorf("malformed fingerprint %q", fp)
	}
	key, err := strconv.ParseUint(fp[len("sha256:"):len("sha256:")+16], 16, 64)
	if err != nil {
		return fmt.Errorf("malformed fingerprint %q: %w", fp, err)
	}
	st := &w.per[c]
	if len(st.fps)%keepEvery == 0 && len(st.kept) < keepMax {
		st.kept = append(st.kept, keptResponse{item: req.item, seed: req.seed, body: bytes.Clone(resp.body)})
	}
	st.fps = append(st.fps, key)
	return nil
}

// finish checks that every request ran its own search under a fresh
// fingerprint, and that the kept responses are byte-identical to
// ConfigureJSON on an independent in-process service.
func (w *coldSearch) finish(e *env, completed int) error {
	seen := make(map[uint64]bool)
	for _, st := range w.per {
		for _, fp := range st.fps {
			if seen[fp] {
				return fmt.Errorf("fingerprint sha256:%016x... served twice", fp)
			}
			seen[fp] = true
		}
	}
	if err := expectSearches(e, w.searches+int64(completed)); err != nil {
		return err
	}
	ind, err := aarc.NewService(serviceOptions()...)
	if err != nil {
		return err
	}
	defer ind.Close()
	for _, st := range w.per {
		for _, k := range st.kept {
			spec, err := workflow.DecodeSpec(bytes.NewReader(w.specs[k.item]))
			if err != nil {
				return err
			}
			seed := k.seed
			body, hit, err := ind.ConfigureJSON(context.Background(), spec, aarc.ServiceRequest{Seed: &seed})
			if err != nil {
				return fmt.Errorf("independent service: %w", err)
			}
			if hit || !bytes.Equal(append(bytes.Clone(body), '\n'), k.body) {
				return fmt.Errorf("seed %d: served body differs from an independent service's", seed)
			}
		}
	}
	return nil
}

func (w *coldSearch) sloFailures() []string { return nil }

// largeSpecNodes is the node count of every large-spec spec, and
// largePerFamily the number of specs generated per topology family:
// whether a generated spec can be configured depends on its seed, and
// several specs per family keep the timed mix from swinging with one
// spec's outcome.
const (
	largeSpecNodes = 1000
	largePerFamily = 4
)

// largeCap is the server-side sample cap of large-spec: aarcd
// -max-samples 60, the cap the repository's aarcd smoke test uses. An
// uncapped search of a 1000-node layered spec runs out of memory.
const largeCap = 60

// sloError is the error a generated spec fails with when even its base
// configuration misses the SLO.
const sloError = "base configuration misses the SLO"

// bigSpec is one generated 1000-node spec, kept as pre-encoded fragments
// so a permuted body costs a shuffle and a copy.
type bigSpec struct {
	topo  workloads.Topology
	head  []byte            // `{"spec":{` ... `"nodes":[`
	nodes []json.RawMessage // one encoded node each
	edges []json.RawMessage // one encoded edge each
	want  []byte            // setup response
	fp    string
}

// largeSpec re-POSTs 1000-node specs of every topology family, each
// request a byte-unique serialization with node and edge order permuted,
// so decoding and canonicalization dominate and no raw-body memo helps.
type largeSpec struct {
	specs    []*bigSpec
	active   []*bigSpec // specs the service configured at setup
	byFamily [][]int    // indexes into active, one list per family with any
	failed   []string   // families of the specs that failed with sloError
	seed     uint64
	per      []largeConn
	searches int64
}

type largeConn struct {
	rng          *rand.Rand
	nodes, edges []int
	buf          []byte
}

func newLargeSpec(seed uint64, conns int) (*largeSpec, error) {
	w := &largeSpec{seed: seed, per: make([]largeConn, conns)}
	for j := uint64(0); j < largePerFamily; j++ {
		for _, topo := range workloads.Topologies() {
			spec, err := workloads.Scale(workloads.ScaleOptions{Topology: topo, Nodes: largeSpecNodes, Seed: seed*largePerFamily + j})
			if err != nil {
				return nil, fmt.Errorf("generating %s: %w", topo, err)
			}
			b, err := splitSpec(topo, spec)
			if err != nil {
				return nil, err
			}
			w.specs = append(w.specs, b)
		}
	}
	for c := range w.per {
		w.per[c].rng = rand.New(rand.NewPCG(seed, uint64(c)+1))
	}
	return w, nil
}

// splitSpec splits the DecodeSpec encoding of spec into fragments.
func splitSpec(topo workloads.Topology, spec *workflow.Spec) (*bigSpec, error) {
	var b bytes.Buffer
	if err := workflow.EncodeSpec(&b, spec); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", topo, err)
	}
	var doc struct {
		Name   json.RawMessage   `json:"name"`
		SLOMS  json.RawMessage   `json:"slo_ms"`
		Nodes  []json.RawMessage `json:"nodes"`
		Edges  []json.RawMessage `json:"edges"`
		Base   json.RawMessage   `json:"base"`
		Limits json.RawMessage   `json:"limits"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("splitting %s: %w", topo, err)
	}
	f := &bigSpec{topo: topo, nodes: doc.Nodes, edges: doc.Edges}
	for _, kv := range [][2][]byte{
		{[]byte(`{"spec":{"name":`), doc.Name},
		{[]byte(`,"slo_ms":`), doc.SLOMS},
		{[]byte(`,"base":`), doc.Base},
		{[]byte(`,"limits":`), doc.Limits},
	} {
		f.head = append(append(f.head, kv[0]...), kv[1]...)
	}
	f.head = append(f.head, `,"nodes":[`...)
	return f, nil
}

// body assembles a configure body from f's fragments in the given order.
func (f *bigSpec) body(buf []byte, nodes, edges []int) []byte {
	buf = append(buf[:0], f.head...)
	for k, i := range nodes {
		if k > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, f.nodes[i]...)
	}
	buf = append(buf, `],"edges":[`...)
	for k, i := range edges {
		if k > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, f.edges[i]...)
	}
	return append(buf, "]}}"...)
}

func (w *largeSpec) options() []aarc.Option {
	return []aarc.Option{aarc.WithBudget(aarc.Budget{MaxSamples: largeCap})}
}

// setup searches every spec once. A spec whose base configuration misses
// its SLO is recorded by family and left out of the timed mix; any other
// failure fails the setup.
func (w *largeSpec) setup(e *env) error {
	w.active, w.byFamily, w.failed = nil, nil, nil
	family := map[workloads.Topology]int{}
	for _, f := range w.specs {
		resp, err := configureOnce(e, f.body(nil, inOrder(nil, len(f.nodes)), inOrder(nil, len(f.edges))))
		if err != nil {
			return err
		}
		switch {
		case resp.status == 200 && resp.cache == "miss":
			f.want = resp.body
			if f.fp, err = fingerprintOf(resp.body); err != nil {
				return err
			}
			k, ok := family[f.topo]
			if !ok {
				k = len(w.byFamily)
				family[f.topo] = k
				w.byFamily = append(w.byFamily, nil)
			}
			w.byFamily[k] = append(w.byFamily[k], len(w.active))
			w.active = append(w.active, f)
		case resp.status == 500 && bytes.Contains(resp.body, []byte(sloError)):
			w.failed = append(w.failed, string(f.topo))
		default:
			return fmt.Errorf("setup %s@%d: status %d cache %q: %s", f.topo, largeSpecNodes, resp.status, resp.cache, resp.body)
		}
	}
	if len(w.active) == 0 {
		return fmt.Errorf("no spec of seed %d could be configured", w.seed)
	}
	w.searches = e.svc.Stats().Searches
	return nil
}

// next rotates over the families first and over a family's specs second,
// so the mix keeps every family's share however many of its specs failed
// at setup.
func (w *largeSpec) next(c, i int) request {
	st := &w.per[c]
	n := i + c
	fam := w.byFamily[n%len(w.byFamily)]
	item := fam[n/len(w.byFamily)%len(fam)]
	f := w.active[item]
	st.nodes, st.edges = inOrder(st.nodes, len(f.nodes)), inOrder(st.edges, len(f.edges))
	st.rng.Shuffle(len(st.nodes), func(i, j int) { st.nodes[i], st.nodes[j] = st.nodes[j], st.nodes[i] })
	st.rng.Shuffle(len(st.edges), func(i, j int) { st.edges[i], st.edges[j] = st.edges[j], st.edges[i] })
	st.buf = f.body(st.buf, st.nodes, st.edges)
	return request{kind: postHit, item: item, body: st.buf, spec: st.buf[len(`{"spec":`) : len(st.buf)-1]}
}

// inOrder returns 0..n-1 in p's storage.
func inOrder(p []int, n int) []int {
	p = p[:0]
	for i := 0; i < n; i++ {
		p = append(p, i)
	}
	return p
}

func (w *largeSpec) check(_ int, req *request, resp *response) error {
	return expectHit(resp, w.active[req.item].want)
}

func (w *largeSpec) finish(e *env, _ int) error { return expectSearches(e, w.searches) }

func (w *largeSpec) sloFailures() []string { return w.failed }
