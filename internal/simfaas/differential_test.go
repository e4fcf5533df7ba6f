package simfaas

import (
	"math/rand/v2"
	"testing"

	"aarc/internal/resources"
)

// diffKeys are the container keys the differential fuzzer draws from; ""
// aliases the profile's name, "f".
var diffKeys = [...]string{"", "f", "k1", "k2"}

// diffConfigs straddle prof()'s 256 MB OOM floor (and its doubled floor at
// input scale 2), repeat configs so keep-alive hits happen, and include one
// invalid config.
var diffConfigs = [...]resources.Config{
	{CPU: 1, MemMB: 512},
	{CPU: 2, MemMB: 1024},
	{CPU: 2, MemMB: 128},
	{CPU: 0.5, MemMB: 256},
	{CPU: 4, MemMB: 300},
	{CPU: 0, MemMB: 512},
}

var diffScales = [...]float64{1, 0.5, 2}

// FuzzPlatformDifferential drives random operation sequences against the
// slot-indexed Platform and the map + container/list oracle it replaced:
// every Invocation, Metrics snapshot, WarmCount and per-key
// FunctionMetricsFor must agree, with measurement noise on so that a
// divergent RNG draw (an OOM must draw none) shows up in later runtimes.
//
// The first byte picks the options (KeepAlive, MaxWarmContainers 0..3);
// each later pair of bytes is one operation.
func FuzzPlatformDifferential(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x08, 0x01, 0x10, 0x02})
	f.Add([]byte{0x03, 0x00, 0x00, 0x08, 0x01, 0x10, 0x00, 0x00, 0x00, 0x18, 0x03})
	f.Add([]byte{0x07, 0x00, 0x01, 0x08, 0x02, 0x06, 0x00, 0x10, 0x04, 0x18, 0x05, 0x00, 0x00})
	f.Add([]byte{0x00, 0x20, 0x01, 0x28, 0x02, 0x07, 0x00, 0x30, 0x0b})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		opts := DefaultOptions()
		opts.KeepAlive = data[0]&1 != 0
		opts.MaxWarmContainers = int(data[0]>>1) % 4
		got, want := New(opts), newOracle(opts)
		gotRNG := rand.New(rand.NewPCG(7, 11))
		wantRNG := rand.New(rand.NewPCG(7, 11))
		pr := prof()
		pr.NoiseStd = 0.05
		pr.InputSensitive = true

		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			key := diffKeys[(op>>3)%byte(len(diffKeys))]
			switch op % 8 {
			case 6:
				got.Flush()
				want.Flush()
			case 7:
				if g, w := got.FunctionMetricsFor(key), want.FunctionMetricsFor(key); g != w {
					t.Fatalf("op %d: FunctionMetricsFor(%q) = %+v, oracle %+v", i, key, g, w)
				}
			default:
				cfg := diffConfigs[int(arg)%len(diffConfigs)]
				scale := diffScales[int(arg>>4)%len(diffScales)]
				g, gerr := got.Invoke(key, pr, cfg, scale, gotRNG)
				w, werr := want.Invoke(key, pr, cfg, scale, wantRNG)
				if (gerr != nil) != (werr != nil) || g != w {
					t.Fatalf("op %d: Invoke(%q, %v, %v) = %+v, %v; oracle %+v, %v", i, key, cfg, scale, g, gerr, w, werr)
				}
			}
			if g, w := got.Metrics(), want.Metrics(); g != w {
				t.Fatalf("op %d: Metrics = %+v, oracle %+v", i, g, w)
			}
			if g, w := got.WarmCount(), want.WarmCount(); g != w {
				t.Fatalf("op %d: WarmCount = %d, oracle %d", i, g, w)
			}
		}
		for _, key := range append(diffKeys[:], "never-invoked") {
			if g, w := got.FunctionMetricsFor(key), want.FunctionMetricsFor(key); g != w {
				t.Fatalf("FunctionMetricsFor(%q) = %+v, oracle %+v", key, g, w)
			}
		}
	})
}

// TestInvokeSlotAllocFree is the runtime twin of InvokeSlot's
// //aarc:hotpath marker: a warm invocation, a cold one, an OOM kill and an
// LRU eviction each allocate nothing.
func TestInvokeSlotAllocFree(t *testing.T) {
	pr := prof()
	pr.NoiseStd = 0.05
	rng := rand.New(rand.NewPCG(1, 2))
	fits := resources.Config{CPU: 2, MemMB: 1024}
	tooSmall := resources.Config{CPU: 2, MemMB: 128}

	cases := []struct {
		name string
		opts func(*Options)
		cfg  resources.Config
		// check runs after the measured calls and proves each of them took
		// the intended path.
		check func(t *testing.T, m Metrics, runs int)
	}{
		{"warm", func(*Options) {}, fits, func(t *testing.T, m Metrics, runs int) {
			if m.WarmStarts < runs {
				t.Errorf("%d warm starts, want at least %d", m.WarmStarts, runs)
			}
		}},
		{"cold", func(o *Options) { o.KeepAlive = false }, fits, func(t *testing.T, m Metrics, runs int) {
			if m.ColdStarts != m.Invocations {
				t.Errorf("%d cold starts in %d invocations", m.ColdStarts, m.Invocations)
			}
		}},
		{"oom", func(*Options) {}, tooSmall, func(t *testing.T, m Metrics, runs int) {
			if m.OOMKills != m.Invocations {
				t.Errorf("%d OOM kills in %d invocations", m.OOMKills, m.Invocations)
			}
		}},
		{"eviction", func(o *Options) { o.MaxWarmContainers = 1 }, fits, func(t *testing.T, m Metrics, runs int) {
			if m.Evictions < runs {
				t.Errorf("%d evictions, want at least %d", m.Evictions, runs)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			tc.opts(&opts)
			p := New(opts)
			// The eviction case alternates two keys in a one-container pool,
			// so every invocation evicts the other key's container.
			slots := [2]int{p.Slot("a"), p.Slot("b")}
			if tc.name != "eviction" {
				slots[1] = slots[0]
			}
			call := 0
			invoke := func() {
				if _, err := p.InvokeSlot(slots[call%2], &pr, tc.cfg, 1, rng); err != nil {
					t.Fatal(err)
				}
				call++
			}
			invoke() // warm up
			const runs = 100
			if avg := testing.AllocsPerRun(runs, invoke); avg != 0 {
				t.Errorf("InvokeSlot allocates %.1f times per call, want 0", avg)
			}
			tc.check(t, p.Metrics(), runs)
		})
	}
}
