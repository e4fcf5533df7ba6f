package service

import (
	"bytes"
	"net/http"
	"strconv"
	"testing"

	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// BenchmarkEvaluateN compares the evaluate batch path against the
// lock-per-run loop it replaced: one shard-lock acquisition per 64-run
// chunk instead of one per run. The locks/run metric is the amortization
// itself — 1/evaluateChunk for the batched path, 1 for the loop; it is
// what contention multiplies, so it matters even where the uncontended
// wall-time difference sits inside noise.
//
//	go test ./internal/service -bench=BenchmarkEvaluateN -benchtime=100x -run='^$'
func BenchmarkEvaluateN(b *testing.B) {
	spec, err := workloads.ByName("chatbot")
	if err != nil {
		b.Fatal(err)
	}
	pool, err := newRunnerPool(spec, workflow.RunnerOptions{HostCores: 96, Noise: true, Seed: 42}, 4)
	if err != nil {
		b.Fatal(err)
	}
	const runs = 64
	b.Run("LockPerRun", func(b *testing.B) {
		start := pool.locks.Load()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < runs; j++ {
				if _, err := pool.evaluate(spec.Base); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(pool.locks.Load()-start)/float64(b.N*runs), "locks/run")
	})
	b.Run("Batched", func(b *testing.B) {
		start := pool.locks.Load()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := pool.evaluateN(spec.Base, runs)
			if err != nil {
				b.Fatal(err)
			}
			if len(res) != runs {
				b.Fatalf("got %d results, want %d", len(res), runs)
			}
		}
		b.ReportMetric(float64(pool.locks.Load()-start)/float64(b.N*runs), "locks/run")
	})
}

// BenchmarkConfigureMemo drives the POST /v1/configure handler in
// process. Hit sends bytes the raw-body memo has admitted, which are
// answered without a decode; FirstSighting sends bytes never seen before
// (an ignored envelope member varies per request) that configure to the
// same stored fingerprint, so it is a store hit through the full path
// plus the memo's key and doorkeeper work, and never a SHA-256.
//
//	go test ./internal/service -bench=BenchmarkConfigureMemo -benchmem -run='^$'
func BenchmarkConfigureMemo(b *testing.B) {
	spec, err := workloads.ByName("chatbot")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := workflow.EncodeSpec(&buf, spec); err != nil {
		b.Fatal(err)
	}
	specJSON := buf.Bytes()
	svc := stubService(b, Config{})
	h := NewHandler(svc)
	body := append(append([]byte(`{"spec":`), specJSON...), '}')
	m := newMemoRequest(body)
	for i := 0; i < 3; i++ {
		m.reset(body)
		if code, _ := m.serve(h); code != http.StatusOK {
			b.Fatalf("set-up POST %d: status %d", i+1, code)
		}
	}
	b.Run("Hit", func(b *testing.B) {
		before := svc.Stats().MemoHits
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			m.reset(body)
			if code, cache := m.serve(h); code != http.StatusOK || cache != "hit" {
				b.Fatalf("status %d, cache %q", code, cache)
			}
		}
		if got := svc.Stats().MemoHits - before; got != int64(b.N) {
			b.Fatalf("%d memo hits in %d requests", got, b.N)
		}
	})
	var seq int64 // across the runs of one benchmark, so no body repeats
	b.Run("FirstSighting", func(b *testing.B) {
		hashed := svc.memo.hashed.Load()
		fresh := make([]byte, 0, len(body)+32)
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			seq++
			fresh = strconv.AppendInt(append(fresh[:0], `{"n":`...), seq, 10)
			fresh = append(append(append(fresh, `,"spec":`...), specJSON...), '}')
			m.reset(fresh)
			if code, cache := m.serve(h); code != http.StatusOK || cache != "hit" {
				b.Fatalf("status %d, cache %q", code, cache)
			}
		}
		if got := svc.memo.hashed.Load() - hashed; got != 0 {
			b.Fatalf("%d SHA-256 computations for first sightings", got)
		}
	})
}
