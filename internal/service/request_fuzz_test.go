package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"

	"aarc/internal/inputaware"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// The wire structs the single-pass request decoders replaced, decoded
// with encoding/json: the oracle of FuzzRequestDifferential.

type oracleSpecSource struct {
	Workload string          `json:"workload,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
}

func (ss oracleSpecSource) spec() (*workflow.Spec, error) {
	switch {
	case ss.Workload != "" && len(ss.Spec) > 0:
		return nil, errors.New("both")
	case ss.Workload != "":
		return workloads.ByName(ss.Workload)
	case len(ss.Spec) > 0:
		return workflow.DecodeSpec(bytes.NewReader(ss.Spec))
	default:
		return nil, errors.New("missing")
	}
}

type oracleKnobs struct {
	Method       string  `json:"method,omitempty"`
	Seed         *uint64 `json:"seed,omitempty"`
	SLOMS        float64 `json:"slo_ms,omitempty"`
	MaxSamples   int     `json:"max_samples,omitempty"`
	MaxSimCostMS float64 `json:"max_sim_cost_ms,omitempty"`
	InputScale   float64 `json:"input_scale,omitempty"`
}

func (rk oracleKnobs) options() RequestOptions {
	return RequestOptions{
		Method: rk.Method, Seed: rk.Seed, SLOMS: rk.SLOMS, MaxSamples: rk.MaxSamples,
		MaxSimCostMS: rk.MaxSimCostMS, InputScale: rk.InputScale,
	}
}

type oracleConfigure struct {
	oracleSpecSource
	oracleKnobs
}

type oracleDispatch struct {
	oracleSpecSource
	oracleKnobs
	Scale   float64 `json:"scale"`
	Classes []struct {
		Name  string  `json:"name"`
		Scale float64 `json:"scale"`
	} `json:"classes,omitempty"`
}

type oracleBatch struct {
	Requests []oracleConfigure `json:"requests"`
}

// requestCorpus seeds both request fuzzers: well-formed bodies of each
// endpoint, the seed (uint64) and max_samples (int) knobs at and past
// their ranges, and the envelope quirks encoding/json has.
var requestCorpus = []string{
	`{"workload":"chatbot"}`,
	`{"workload":"chatbot","method":"stub","seed":7,"slo_ms":9000,"max_samples":5,"max_sim_cost_ms":1e6,"input_scale":1.5}`,
	`{"spec":{"name":"x","slo_ms":60000,"nodes":[{"id":"a","profile":{"cpu_work_ms":100,"footprint_mb":256,"min_mem_mb":128}},{"id":"b","profile":{"cpu_work_ms":100,"footprint_mb":256,"min_mem_mb":128}}],"edges":[["a","b"]],"base":{"cpu":2,"mem_mb":1024}},"method":"stub"}`,
	`{"spec":{"name":"x"},"spec":{"name":"x","slo_ms":60000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}}],"base":{"cpu":2,"mem_mb":1024}}}`,
	`{"spec":null}`, `{"spec":5}`, `{"spec":{}}`, `{"workload":"chatbot","spec":{}}`, `{"workload":""}`, `{"workload":null}`,
	`{"workload":"nope"}`, `{"workload":5}`, `{"WORKLOAD":"chatbot","Method":"stub"}`, `{"workload":"chatbot","extra":[1,{"a":null}]}`,
	`{"workload":"chatbot","method":"nope"}`,
	// seed: uint64 bounds, signs, fractions, exponents, null.
	`{"workload":"chatbot","seed":18446744073709551615}`,
	`{"workload":"chatbot","seed":18446744073709551616}`,
	`{"workload":"chatbot","seed":-1}`, `{"workload":"chatbot","seed":1.5}`, `{"workload":"chatbot","seed":1e3}`,
	`{"workload":"chatbot","seed":"7"}`, `{"workload":"chatbot","seed":null}`, `{"workload":"chatbot","seed":3,"seed":null}`,
	`{"workload":"chatbot","seed":-0}`, `{"workload":"chatbot","seed":01}`,
	// max_samples: int bounds.
	`{"workload":"chatbot","max_samples":9223372036854775807}`,
	`{"workload":"chatbot","max_samples":9223372036854775808}`,
	`{"workload":"chatbot","max_samples":-9223372036854775808}`,
	`{"workload":"chatbot","max_samples":2.0}`, `{"workload":"chatbot","max_samples":1e2}`, `{"workload":"chatbot","max_samples":-3}`,
	`{"workload":"chatbot","slo_ms":1e400}`, `{"workload":"chatbot","input_scale":-1}`,
	// dispatch members.
	`{"workload":"video-analysis","method":"stub","scale":1.4}`,
	`{"workload":"video-analysis","method":"stub","scale":1.4,"classes":[{"name":"s","scale":0.5},{"name":"l","scale":2}]}`,
	`{"workload":"video-analysis","method":"stub","scale":1.4,"classes":[{"name":"s","scale":0.5}],"classes":[null,{"NAME":"m"}]}`,
	`{"workload":"video-analysis","method":"stub","scale":0}`, `{"workload":"video-analysis","scale":"big"}`, `{"workload":"video-analysis","classes":{}}`,
	// batch bodies.
	`{"requests":[{"workload":"chatbot","method":"stub"},{"workload":"nope"},{"spec":{"name":"x"}}]}`,
	`{"requests":[{"workload":"chatbot"}],"requests":[{"method":"stub"}]}`,
	`{"requests":null}`, `{"requests":[]}`, `{"requests":{}}`, `{"requests":[5]}`, `{"requests":[{"seed":"x"}]}`,
	// Documents that are not request objects.
	``, `null`, `[]`, `"x"`, `{`, `{"workload":"chatbot"} trailing`, `{"workload":"chatbot"`, `{"workload":"chatbot",}`,
}

// FuzzRequestDifferential runs the configure, dispatch and batch decoders
// against encoding/json on the structs they replaced: the same envelope
// errors, and on accepted bodies the same options, the same spec (or the
// same spec failure) per request.
func FuzzRequestDifferential(f *testing.F) {
	for _, b := range requestCorpus {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var oc oracleConfigure
		cr, err := decodeRequest(body, false)
		checkEnvelope(t, body, json.NewDecoder(bytes.NewReader(body)).Decode(&oc), err)
		if err == nil {
			checkRequest(t, body, oc.oracleSpecSource, oc.options(), cr)
		}

		var od oracleDispatch
		dr, err := decodeRequest(body, true)
		checkEnvelope(t, body, json.NewDecoder(bytes.NewReader(body)).Decode(&od), err)
		if err == nil {
			checkRequest(t, body, od.oracleSpecSource, od.options(), dr)
			var want []inputaware.Class
			for _, c := range od.Classes {
				want = append(want, inputaware.Class{Name: c.Name, Scale: c.Scale})
			}
			if dr.scale != od.Scale || !reflect.DeepEqual(dr.inputClasses(), want) {
				t.Fatalf("body %q: dispatch scale/classes %v %v, want %v %v", body, dr.scale, dr.inputClasses(), od.Scale, want)
			}
		}

		var ob oracleBatch
		reqs, err := decodeBatch(body)
		checkEnvelope(t, body, json.NewDecoder(bytes.NewReader(body)).Decode(&ob), err)
		if err == nil {
			if len(reqs) != len(ob.Requests) {
				t.Fatalf("body %q: %d batch items, want %d", body, len(reqs), len(ob.Requests))
			}
			for i := range reqs {
				checkRequest(t, body, ob.Requests[i].oracleSpecSource, ob.Requests[i].options(), &reqs[i])
			}
		}
	})
}

func checkEnvelope(t *testing.T, body []byte, want, got error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("body %q: envelope err %v, encoding/json err %v", body, got, want)
	}
}

func checkRequest(t *testing.T, body []byte, ss oracleSpecSource, opts RequestOptions, cr *configureRequest) {
	t.Helper()
	if !reflect.DeepEqual(cr.opts, opts) {
		t.Fatalf("body %q: options %+v, want %+v", body, cr.opts, opts)
	}
	// The decoder leaves validation to the fingerprint's CanonicalJSON;
	// the oracle validates at decode.
	got, gerr := cr.source()
	if gerr == nil {
		gerr = got.Validate()
	}
	want, werr := ss.spec()
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("body %q: spec err %v, encoding/json path err %v", body, gerr, werr)
	}
	if gerr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: decoded specs differ", body)
	}
}

// FuzzHandler posts arbitrary bodies to every endpoint that decodes one.
// Nothing may panic, and a request the service rejects before its cache
// lookup — malformed JSON, a bad spec, an unknown method or workload, a
// bad knob — must get a 4xx, never a 500. A 500 stays possible only from
// a search that ran and failed (the fault-injecting "failing" method, or
// a spec whose base configuration misses its SLO). /v1/evaluate runs no
// search, so it never answers 500: an unknown fingerprint is a 404 and an
// assignment that does not fit the workflow a 400.
//
// Every body is POSTed to /v1/configure three more times: the status and
// response bytes must not change, so the raw-body memo, which admits a
// body on its second success and answers the third, can never change an
// answer.
//
// The bytes are also sent as the escaped {fp} segment of GET and DELETE
// /v1/recommendation/{fp}, next to GET /v1/recommendations: no 500, and
// unless they are the chatbot fingerprint itself, that entry still
// answers 200 afterwards. Last, they are a GET request path of their
// own, and the {fp} segment (and Last-Event-ID) of GET /v1/watch/{fp},
// both with an already-cancelled request context: no 500, no panic, and
// an answer within the deadline.
func FuzzHandler(f *testing.F) {
	for _, b := range requestCorpus {
		f.Add([]byte(b))
	}
	svc := stubService(f, Config{MaxSamples: 4})
	h := NewHandler(svc)
	spec, err := workloads.ByName("chatbot")
	if err != nil {
		f.Fatal(err)
	}
	rec, _, err := svc.Configure(context.Background(), spec, RequestOptions{})
	if err != nil {
		f.Fatal(err)
	}
	invalid := make(map[string]ConfigValue, len(rec.Assignment))
	for g := range rec.Assignment {
		invalid[g] = ConfigValue{CPU: -1, MemMB: 1024}
	}
	invalidJSON, err := json.Marshal(invalid)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range []string{
		`{"fingerprint":%q}`,
		`{"fingerprint":%q,"runs":3}`,
		`{"fingerprint":%q,"runs":1025}`,
		`{"fingerprint":%q,"assignment":{"bogus":{"cpu":1,"mem_mb":1024}}}`,
		`{"fingerprint":%q,"assignment":` + string(invalidJSON) + `}`,
	} {
		f.Add([]byte(fmt.Sprintf(b, rec.Fingerprint)))
	}
	f.Add([]byte(rec.Fingerprint))
	f.Fuzz(func(t *testing.T, body []byte) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body)))
		if rr.Code == http.StatusInternalServerError {
			t.Fatalf("POST /v1/evaluate %q: 500: %s", body, rr.Body.Bytes())
		}
		for _, path := range []string{"/v1/configure", "/v1/configure:batch", "/v1/dispatch"} {
			before := svc.Stats()
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			after := svc.Stats()
			if after.Panics != before.Panics {
				t.Fatalf("POST %s %q panicked: %s", path, body, rr.Body.Bytes())
			}
			looked := after.Hits+after.Misses != before.Hits+before.Misses
			if rr.Code == http.StatusInternalServerError && !looked {
				t.Fatalf("POST %s %q: 500 before any cache lookup: %s", path, body, rr.Body.Bytes())
			}
			if path == "/v1/configure:batch" && rr.Code == http.StatusOK {
				var out batchConfigureResponse
				if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
					t.Fatalf("POST %s %q: unreadable batch response: %v", path, body, err)
				}
				for _, item := range out.Results {
					if item.Status == http.StatusInternalServerError && !looked {
						t.Fatalf("POST %s %q: item 500 before any cache lookup: %s", path, body, item.Error)
					}
				}
			}
		}
		var first *httptest.ResponseRecorder
		for i := 0; i < 3; i++ {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/configure", bytes.NewReader(body)))
			if i == 0 {
				first = rr
				continue
			}
			if rr.Code != first.Code || !bytes.Equal(rr.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("POST /v1/configure %q, repeat %d: %d %s, first %d %s",
					body, i, rr.Code, rr.Body.Bytes(), first.Code, first.Body.Bytes())
			}
		}
		// The POSTs above may have pushed the chatbot entry out of the
		// store, and an earlier DELETE may have removed it: configure it
		// again (a hit when it is there) before probing the fingerprint
		// routes.
		if _, _, err := svc.Configure(context.Background(), spec, RequestOptions{}); err != nil {
			t.Fatal(err)
		}
		seg := url.PathEscape(string(body))
		for _, probe := range []struct{ method, path string }{
			{http.MethodGet, "/v1/recommendation/" + seg},
			{http.MethodDelete, "/v1/recommendation/" + seg},
			{http.MethodGet, "/v1/recommendations"},
		} {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(probe.method, probe.path, nil))
			if rr.Code == http.StatusInternalServerError {
				t.Fatalf("%s %s: 500: %s", probe.method, probe.path, rr.Body.Bytes())
			}
		}
		if string(body) != rec.Fingerprint {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/recommendation/"+rec.Fingerprint, nil))
			if rr.Code != http.StatusOK {
				t.Fatalf("DELETE /v1/recommendation/%s removed the chatbot entry: GET answers %d", seg, rr.Code)
			}
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		path := httptest.NewRequestWithContext(cancelled, http.MethodGet, "/", nil)
		path.URL.Path = "/" + string(body)
		watch := httptest.NewRequestWithContext(cancelled, http.MethodGet, "/v1/watch/"+seg, nil)
		watch.Header.Set("Last-Event-ID", string(body))
		for _, req := range []*http.Request{path, watch} {
			before := svc.Stats().Panics
			rr := serveWithin(t, h, req, 10*time.Second)
			if rr.Code == http.StatusInternalServerError || svc.Stats().Panics != before {
				t.Fatalf("GET %q with a cancelled context: %d: %s", req.URL.Path, rr.Code, rr.Body.Bytes())
			}
		}
	})
}

// serveWithin serves req and fails the test if the handler has not
// returned within d.
func serveWithin(t *testing.T, h http.Handler, req *http.Request, d time.Duration) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rr, req)
	}()
	select {
	case <-done:
		return rr
	case <-time.After(d):
		t.Fatalf("%s %q: no answer within %v", req.Method, req.URL.Path, d)
		return nil
	}
}
