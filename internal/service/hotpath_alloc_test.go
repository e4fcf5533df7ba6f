// Runtime twin of the hotalloc static check for the serving fast path:
// GET /v1/recommendation/{fp} resolves to RecommendationJSON, whose
// //aarc:hotpath marker promises an alloc-free hit. hotalloc proves it
// statically down to the Store interface hop; this pins the whole
// chain — RecommendationJSON → getStore → Notify.Get → Tiered.Get →
// Memory.Get — at zero allocations per hit at runtime.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestRecommendationJSONHitAllocFree(t *testing.T) {
	svc := stubService(t, Config{})
	spec := testSpec(t, 0)

	body, _, err := svc.ConfigureJSON(context.Background(), spec, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var rec Recommendation
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	fp := rec.Fingerprint

	if got, err := svc.RecommendationJSON(fp); err != nil || string(got) != string(body) {
		t.Fatalf("warm-up RecommendationJSON = %q, %v", got, err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := svc.RecommendationJSON(fp); err != nil {
			t.Fatalf("RecommendationJSON: %v", err)
		}
	})
	if avg != 0 {
		t.Errorf("fingerprint GET hit path allocates %.1f times per call, want 0", avg)
	}
}

// memoRequest replays one POST /v1/configure body into the handler with
// a reused request and response writer, so that what AllocsPerRun and
// BenchmarkConfigureMemo count is the handler's own work.
type memoRequest struct {
	r    *http.Request
	body replayBody
	w    discardWriter
}

type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

func newMemoRequest(body []byte) *memoRequest {
	m := &memoRequest{w: discardWriter{h: make(http.Header)}}
	m.r = httptest.NewRequest(http.MethodPost, "/v1/configure", nil)
	m.r.Body = &m.body
	m.reset(body)
	return m
}

// reset rewinds the request to send body.
func (m *memoRequest) reset(body []byte) {
	m.body.Reset(body)
	m.r.ContentLength = int64(len(body))
}

// serve sends the current body and returns the status and cache header.
func (m *memoRequest) serve(h http.Handler) (int, string) {
	m.w.code = 0
	h.ServeHTTP(&m.w, m.r)
	return m.w.code, m.w.h.Get("X-Aarc-Cache")
}

type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// A memo hit — POST /v1/configure of bytes admitted before — decodes no
// spec: configureMemo allocates nothing, and the whole handler four
// times, in -race builds too: http.MaxBytesReader, the body buffer, and
// the two response header values.
func TestConfigureMemoHitAllocs(t *testing.T) {
	svc := stubService(t, Config{})
	h := NewHandler(svc)
	body := []byte(configureBody(t, 0))
	m := newMemoRequest(body)
	for i := 0; i < 3; i++ {
		m.reset(body)
		if code, cache := m.serve(h); code != http.StatusOK {
			t.Fatalf("POST %d: status %d (%s)", i+1, code, cache)
		}
	}
	if svc.Stats().MemoHits != 1 {
		t.Fatalf("memo hits %d after three POSTs, want 1", svc.Stats().MemoHits)
	}

	k := svc.memo.key(body)
	if avg := testing.AllocsPerRun(100, func() {
		if _, ok := svc.configureMemo(k, body); !ok {
			t.Fatal("configureMemo missed an admitted body")
		}
	}); avg != 0 {
		t.Errorf("configureMemo hit allocates %.1f times per call, want 0", avg)
	}

	const maxHandlerAllocs = 4
	avg := testing.AllocsPerRun(100, func() {
		m.reset(body)
		if code, cache := m.serve(h); code != http.StatusOK || cache != "hit" {
			t.Fatalf("memo hit: status %d, cache %q", code, cache)
		}
	})
	if avg > maxHandlerAllocs {
		t.Errorf("POST /v1/configure memo hit allocates %.1f times per request, want at most %d", avg, maxHandlerAllocs)
	}
}
