package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aarc"
	"aarc/internal/resources"
	"aarc/internal/search"
	"aarc/internal/store"
	"aarc/internal/workflow"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 for a request root).
// Attrs carries the counts measured at the same boundary.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Req    int64              `json:"req"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. The traced run uses
// one connection, so at most one request is in flight: cur names the span
// that store calls made by the server nest under.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64
	req   atomic.Int64
	cur   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }
func (r *recorder) id() int64  { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn as a span named name under parent.
func (r *recorder) timed(name string, parent int64, fn func() error) error {
	s := span{ID: r.id(), Parent: parent, Req: r.req.Load(), Name: name, Start: r.now()}
	err := fn()
	s.End = r.now()
	r.add(s)
	return err
}

// timingStore is the store.Store the traced service is built over: it
// times every Get and Put of the wrapped store as a span under the
// recorder's current span, and forwards Stats so eviction counts survive.
type timingStore struct {
	inner aarc.Store
	rec   *recorder
}

func (t *timingStore) Get(key string) (store.Entry, bool, error) {
	if !t.rec.on.Load() {
		return t.inner.Get(key)
	}
	start := t.rec.now()
	e, ok, err := t.inner.Get(key)
	t.rec.add(span{ID: t.rec.id(), Parent: t.rec.cur.Load(), Req: t.rec.req.Load(), Name: "store.get",
		Start: start, End: t.rec.now(), Attrs: map[string]float64{"hit": b2f(ok)}})
	return e, ok, err
}

func (t *timingStore) Put(key string, e store.Entry) error {
	if !t.rec.on.Load() {
		return t.inner.Put(key, e)
	}
	start := t.rec.now()
	err := t.inner.Put(key, e)
	t.rec.add(span{ID: t.rec.id(), Parent: t.rec.cur.Load(), Req: t.rec.req.Load(), Name: "store.put",
		Start: start, End: t.rec.now()})
	return err
}

func (t *timingStore) Delete(key string) error { return t.inner.Delete(key) }
func (t *timingStore) Keys() []string          { return t.inner.Keys() }
func (t *timingStore) Len() int                { return t.inner.Len() }
func (t *timingStore) Close() error            { return t.inner.Close() }
func (t *timingStore) Stats() store.Stats      { return store.StatsOf(t.inner) }

// tracedRunner times every Evaluate of a search as a span under it.
// Embedding the runner keeps Graph and GroupOf, so it is still a
// core.Evaluator.
type tracedRunner struct {
	*workflow.Runner
	rec    *recorder
	parent int64
	calls  int
}

func (t *tracedRunner) Evaluate(a resources.Assignment) (search.Result, error) {
	var res search.Result
	err := t.rec.timed("workflow.evaluate", t.parent, func() (err error) {
		res, err = t.Runner.Evaluate(a)
		return err
	})
	t.calls++
	return res, err
}

// replayer re-runs, in process and on the request's own inputs, the
// layers the handler calls internally, as children of the request span.
type replayer struct {
	rec       *recorder
	svc       *aarc.Service // the traced service: hits replay against it
	miss      *aarc.Service // independent service: misses replay against it
	maxSample int           // the server-side sample cap
}

// tracedLoop runs the traced phase on one connection until ctx is done:
// each request's round trip, bracketed by service Stats, then the replay
// of its in-process layers.
func tracedLoop(ctx context.Context, e *env, w workload, rp *replayer) *tally {
	t := newTally(1)
	var buf bytes.Buffer
	for i := 0; ctx.Err() == nil; i++ {
		req := w.next(0, i)
		c := []counts{{all: 1}}
		if err := traceOne(e, w, rp, &req, &buf); err != nil {
			t.add(c, []error{fmt.Errorf("traced request %d (%s): %w", i, req.kind, err)}, 1)
			continue
		}
		c[0].ok = 1
		t.add(c, nil, 0)
	}
	return t
}

func traceOne(e *env, w workload, rp *replayer, req *request, buf *bytes.Buffer) error {
	rec := rp.rec
	root := span{ID: rec.id(), Name: "request"}
	root.Req = root.ID
	rec.req.Store(root.ID)
	root.Start = rec.now()
	defer func() {
		root.End = rec.now()
		rec.add(root)
	}()

	h := span{ID: rec.id(), Parent: root.ID, Req: root.ID, Name: "http." + req.kind.String()}
	rec.cur.Store(h.ID)
	before := e.svc.Stats()
	h.Start = rec.now()
	resp, err := e.do(req, buf)
	h.End = rec.now()
	after := e.svc.Stats()
	if err == nil {
		err = w.check(0, req, &resp)
	}
	if err != nil {
		return err
	}
	var served aarc.ServiceRecommendation
	if err := json.Unmarshal(resp.body, &served); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	h.Attrs = map[string]float64{
		"searches":       float64(after.Searches - before.Searches),
		"hits":           float64(after.Hits - before.Hits),
		"misses":         float64(after.Misses - before.Misses),
		"evictions":      float64(after.Evictions - before.Evictions),
		"samples":        float64(served.Samples),
		"sim_runtime_ms": served.SearchRuntimeMS,
		"sim_cost":       served.SearchCost,
		"slo_compliant":  b2f(served.SLOCompliant),
	}
	rec.add(h)
	return rp.replay(root.ID, req, resp.body, &served)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// replay re-runs what the handler ran for req: the store lookup for a
// GET; decode, validate, canonicalize, hash and the service call for a
// POST, plus compile, search and marshal for a miss. Every replayed
// result is checked against the served body.
func (rp *replayer) replay(rid int64, req *request, body []byte, served *aarc.ServiceRecommendation) error {
	rec := rp.rec
	want := bytes.TrimSuffix(body, []byte("\n"))
	if req.kind == getFP {
		s := span{ID: rec.id(), Parent: rid, Req: rid, Name: "service.get"}
		rec.cur.Store(s.ID)
		s.Start = rec.now()
		got, err := rp.svc.RecommendationJSON(req.fp)
		s.End = rec.now()
		rec.add(s)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return errors.New("replayed GET differs from the served body")
		}
		return nil
	}

	var spec *workflow.Spec
	if err := rec.timed("workflow.decode", rid, func() (err error) {
		spec, err = workflow.DecodeSpec(bytes.NewReader(req.spec))
		return err
	}); err != nil {
		return err
	}
	if err := rec.timed("workflow.validate", rid, spec.Validate); err != nil {
		return err
	}
	cs := span{ID: rec.id(), Parent: rid, Req: rid, Name: "workflow.canonical", Start: rec.now()}
	canon, err := workflow.CanonicalJSON(spec)
	cs.End = rec.now()
	if err != nil {
		return err
	}
	cs.Attrs = map[string]float64{"bytes": float64(len(canon))}
	rec.add(cs)
	_ = rec.timed("workflow.sha256", rid, func() error {
		_ = sha256.Sum256(canon)
		return nil
	})

	ro := aarc.ServiceRequest{}
	seed := uint64(serviceSeed)
	if req.seeded {
		seed = req.seed
		ro.Seed = &seed
	}
	if req.kind == postHit {
		s := span{ID: rec.id(), Parent: rid, Req: rid, Name: "service.configure_hit"}
		rec.cur.Store(s.ID)
		s.Start = rec.now()
		got, hit, err := rp.svc.ConfigureJSON(context.Background(), spec, ro)
		s.End = rec.now()
		rec.add(s)
		if err != nil {
			return err
		}
		if !hit || !bytes.Equal(got, want) {
			return errors.New("replayed configure is not a byte-identical hit")
		}
		return nil
	}

	var runner *workflow.Runner
	if err := rec.timed("workflow.compile", rid, func() (err error) {
		runner, err = workflow.NewRunner(spec, workflow.RunnerOptions{HostCores: serviceHostCores, Noise: true, Seed: seed})
		return err
	}); err != nil {
		return err
	}
	searcher, err := search.New(serviceMethod, seed)
	if err != nil {
		return err
	}
	ss := span{ID: rec.id(), Parent: rid, Req: rid, Name: "search.search"}
	tr := &tracedRunner{Runner: runner, rec: rec, parent: ss.ID}
	ss.Start = rec.now()
	out, err := searcher.Search(context.Background(), tr, search.Options{SLOMS: spec.SLOMS, MaxSamples: rp.maxSample})
	ss.End = rec.now()
	if err != nil {
		return err
	}
	pm := runner.Platform().Metrics()
	ss.Attrs = map[string]float64{
		"evaluate_calls": float64(tr.calls),
		"invocations":    float64(pm.Invocations),
		"cold_starts":    float64(pm.ColdStarts),
	}
	rec.add(ss)
	if out.Trace.Len() != served.Samples || out.Trace.TotalRuntimeMS() != served.SearchRuntimeMS || out.Trace.TotalCost() != served.SearchCost {
		return fmt.Errorf("replayed search (%d samples) differs from the served one (%d samples)", out.Trace.Len(), served.Samples)
	}
	var enc []byte
	if err := rec.timed("service.marshal", rid, func() (err error) {
		enc, err = json.Marshal(served)
		return err
	}); err != nil {
		return err
	}
	if !bytes.Equal(enc, want) {
		return errors.New("re-marshalled recommendation differs from the served body")
	}
	s := span{ID: rec.id(), Parent: rid, Req: rid, Name: "service.configure_miss", Start: rec.now()}
	got, hit, err := rp.miss.ConfigureJSON(context.Background(), spec, ro)
	s.End = rec.now()
	rec.add(s)
	if err != nil {
		return err
	}
	if hit || !bytes.Equal(got, want) {
		return errors.New("independent service's configure differs from the served body")
	}
	return nil
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans reads a file written by writeSpans.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// selfTime is s's duration minus the part of its interval that its
// children cover (overlapping children count once).
func selfTime(s span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64 = 0, s.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.dur() - covered
}
