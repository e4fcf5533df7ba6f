package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// memoPost sends one POST /v1/configure straight to the handler.
func memoPost(h http.Handler, body string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/configure", strings.NewReader(body)))
	return rr
}

// wantServed fails unless rr is a 200 with the given cache header and
// body bytes.
func wantServed(t *testing.T, what string, rr *httptest.ResponseRecorder, cache string, body []byte) {
	t.Helper()
	if rr.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, rr.Code, rr.Body.Bytes())
	}
	if got := rr.Header().Get("X-Aarc-Cache"); got != cache {
		t.Fatalf("%s: X-Aarc-Cache %q, want %q", what, got, cache)
	}
	if !bytes.Equal(rr.Body.Bytes(), body) {
		t.Fatalf("%s: body differs from the first response:\n%s\nwant\n%s", what, rr.Body.Bytes(), body)
	}
}

// configureBody is a POST /v1/configure body with testSpec variant
// inline.
func configureBody(t *testing.T, variant int) string {
	t.Helper()
	return fmt.Sprintf(`{"spec": %s}`, specBody(t, variant))
}

func fingerprintOf(t *testing.T, body []byte) string {
	t.Helper()
	var rec Recommendation
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.Fingerprint
}

// The first POST searches, the second is a store hit through the full
// path that admits the body, and the third is answered from the memo.
func TestConfigureMemoServesThirdPost(t *testing.T) {
	svc := stubService(t, Config{})
	h := NewHandler(svc)
	body := configureBody(t, 0)

	first := memoPost(h, body)
	wantServed(t, "first POST", first, "miss", first.Body.Bytes())
	want := first.Body.Bytes()
	searches := svc.Stats().Searches
	wantServed(t, "second POST", memoPost(h, body), "hit", want)
	if got := svc.Stats().MemoHits; got != 0 {
		t.Fatalf("second POST: %d memo hits, want 0 (a body is admitted on its second sighting)", got)
	}
	before := svc.Stats()
	wantServed(t, "third POST", memoPost(h, body), "hit", want)
	after := svc.Stats()
	if after.MemoHits != before.MemoHits+1 || after.Hits != before.Hits+1 {
		t.Fatalf("third POST: memo hits %d -> %d, hits %d -> %d; want one more of each",
			before.MemoHits, after.MemoHits, before.Hits, after.Hits)
	}
	if after.Searches != searches {
		t.Fatalf("searches %d -> %d after the first POST", searches, after.Searches)
	}
	// The fingerprint GET serves the same bytes the memo did.
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/recommendation/"+fingerprintOf(t, want), nil))
	wantServed(t, "fingerprint GET", rr, "hit", want)
}

// An admitted body whose fingerprint leaves the store, by DELETE or by
// eviction, misses and searches again on its next POST and serves the
// right bytes; the memo needs no invalidation hook.
func TestConfigureMemoFallsThroughWhenStoreDrops(t *testing.T) {
	t.Run("Invalidate", func(t *testing.T) {
		svc := stubService(t, Config{})
		h := NewHandler(svc)
		body := configureBody(t, 0)
		want := memoPost(h, body).Body.Bytes()
		memoPost(h, body)
		memoPost(h, body)
		if svc.Stats().MemoHits != 1 {
			t.Fatalf("memo hits %d before DELETE, want 1", svc.Stats().MemoHits)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodDelete, "/v1/recommendation/"+fingerprintOf(t, want), nil))
		if rr.Code != http.StatusNoContent {
			t.Fatalf("DELETE: status %d", rr.Code)
		}
		before := svc.Stats()
		wantServed(t, "POST after DELETE", memoPost(h, body), "miss", want)
		after := svc.Stats()
		if after.Searches != before.Searches+1 || after.MemoHits != before.MemoHits {
			t.Fatalf("POST after DELETE: searches %d -> %d, memo hits %d -> %d; want a search and no memo hit",
				before.Searches, after.Searches, before.MemoHits, after.MemoHits)
		}
		wantServed(t, "POST after re-search", memoPost(h, body), "hit", want)
		if got := svc.Stats().MemoHits; got != after.MemoHits+1 {
			t.Fatalf("POST after re-search: memo hits %d, want %d", got, after.MemoHits+1)
		}
	})
	t.Run("Evict", func(t *testing.T) {
		svc := stubService(t, Config{CacheSize: 1})
		h := NewHandler(svc)
		a, b := configureBody(t, 0), configureBody(t, 1)
		want := memoPost(h, a).Body.Bytes()
		memoPost(h, a)
		memoPost(h, a)
		if svc.Stats().MemoHits != 1 {
			t.Fatalf("memo hits %d before eviction, want 1", svc.Stats().MemoHits)
		}
		if rr := memoPost(h, b); rr.Code != http.StatusOK {
			t.Fatalf("POST of another spec: status %d: %s", rr.Code, rr.Body.Bytes())
		}
		before := svc.Stats()
		wantServed(t, "POST after eviction", memoPost(h, a), "miss", want)
		if after := svc.Stats(); after.Searches != before.Searches+1 || after.MemoHits != before.MemoHits {
			t.Fatalf("POST after eviction: searches %d -> %d, memo hits %d -> %d; want a search and no memo hit",
				before.Searches, after.Searches, before.MemoHits, after.MemoHits)
		}
	})
}

// A planted entry under the body's lookup key whose SHA-256 does not
// match, standing in for a 64-bit key collision, must not be served: the
// body falls through to the full path. The entry points at another
// configured fingerprint, so serving it would return the wrong body.
func TestConfigureMemoKeyCollisionFallsThrough(t *testing.T) {
	svc := stubService(t, Config{})
	h := NewHandler(svc)
	body, other := configureBody(t, 0), configureBody(t, 1)
	want := memoPost(h, body).Body.Bytes()
	otherFP := fingerprintOf(t, memoPost(h, other).Body.Bytes())

	k := svc.memo.key([]byte(body))
	svc.memo.entries[svc.memo.bucket(k)].Store(&memoEntry{key: k, fp: otherFP})
	before := svc.Stats().MemoHits
	wantServed(t, "POST over the planted entry", memoPost(h, body), "hit", want)
	if got := svc.Stats().MemoHits; got != before {
		t.Fatalf("POST over the planted entry was answered from the memo")
	}
	// The full path's success (the body's second) replaced the planted
	// entry with the body's own.
	wantServed(t, "POST after the fall-through", memoPost(h, body), "hit", want)
	if got := svc.Stats().MemoHits; got != before+1 {
		t.Fatalf("POST after the fall-through: memo hits %d, want %d", got, before+1)
	}
}

// Bodies that do not configure successfully, a 400 or a failed search,
// are never recorded, however often they are sent.
func TestConfigureMemoAdmitsOnlySuccesses(t *testing.T) {
	svc := stubService(t, Config{})
	h := NewHandler(svc)
	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"workload":"nope"}`, http.StatusBadRequest},
		{`{"spec":{"name":"x"}}`, http.StatusBadRequest},
		{`{"workload":"chatbot","method":"nope"}`, http.StatusBadRequest},
		{`{"workload":"chatbot","method":"failing"}`, http.StatusInternalServerError},
	} {
		for i := 0; i < 4; i++ {
			if rr := memoPost(h, tc.body); rr.Code != tc.code {
				t.Fatalf("POST %s: status %d, want %d", tc.body, rr.Code, tc.code)
			}
		}
		k := svc.memo.key([]byte(tc.body))
		if e := svc.memo.lookup(k); e != nil {
			t.Fatalf("POST %s: admitted as %s", tc.body, e.fp)
		}
		for i := range svc.memo.seen {
			if svc.memo.seen[i].Load() == k {
				t.Fatalf("POST %s: recorded in the doorkeeper", tc.body)
			}
		}
	}
	if n := svc.memo.hashed.Load(); n != 0 {
		t.Fatalf("%d SHA-256 computations for bodies that never configured", n)
	}
}

// A body is hashed with SHA-256 only from its second successful
// sighting on: once to admit it, then once per hit check.
func TestConfigureMemoSingleSightingNeverHashes(t *testing.T) {
	svc := stubService(t, Config{})
	h := NewHandler(svc)
	for v := 0; v < 20; v++ {
		if rr := memoPost(h, configureBody(t, v)); rr.Code != http.StatusOK {
			t.Fatalf("POST variant %d: status %d: %s", v, rr.Code, rr.Body.Bytes())
		}
	}
	if n := svc.memo.hashed.Load(); n != 0 {
		t.Fatalf("%d SHA-256 computations for bodies seen once, want 0", n)
	}
	body := configureBody(t, 0)
	memoPost(h, body)
	if n := svc.memo.hashed.Load(); n != 1 {
		t.Fatalf("after a second sighting: %d SHA-256 computations, want 1 (the admission)", n)
	}
	memoPost(h, body)
	if n := svc.memo.hashed.Load(); n != 2 {
		t.Fatalf("after a third sighting: %d SHA-256 computations, want 2 (admission and hit check)", n)
	}
}

// Concurrent identical POSTs, two bodies interleaved: every response is
// the body's first response, and each body searched once. Run under
// -race, this covers the memo's unlocked tables.
func TestConfigureMemoConcurrent(t *testing.T) {
	svc := stubService(t, Config{})
	h := NewHandler(svc)
	bodies := []string{configureBody(t, 0), configureBody(t, 1)}
	want := make([][]byte, len(bodies))
	for i, b := range bodies {
		want[i] = memoPost(h, b).Body.Bytes()
	}
	searches := svc.Stats().Searches
	const workers, posts = 16, 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*posts)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < posts; p++ {
				i := (w + p) % len(bodies)
				rr := memoPost(h, bodies[i])
				if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), want[i]) {
					errs <- fmt.Errorf("body %d: status %d: %s", i, rr.Code, rr.Body.Bytes())
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := svc.Stats()
	if st.Searches != searches {
		t.Errorf("searches %d -> %d under concurrent repeats", searches, st.Searches)
	}
	if st.MemoHits == 0 {
		t.Errorf("no memo hits in %d repeated POSTs", workers*posts)
	}
}
