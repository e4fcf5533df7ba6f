package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"
)

// windows is how many equal slices a timed phase is cut into. The
// end-to-end metrics are medians over the slices, so a burst of load from
// outside the benchmark that spoils one slice does not move them.
const windows = 10

// minTail is the number of successes a slice needs for its own p99: at
// least ten samples beyond it.
const minTail = 1010

// window is one slice of a timed phase with the process counters read at
// its boundaries.
type window struct {
	start, end time.Duration // offsets from the phase start
	cpu        time.Duration // user+sys CPU in the slice
	mallocs    uint64        // heap allocations in the slice
	heapPeak   uint64        // largest heap-objects sample in the slice
}

// phase is one measured closed-loop phase.
type phase struct {
	t       *tally
	elapsed time.Duration
	windows []window

	// runtime/metrics deltas over the whole phase
	allocBytes   float64
	gcCycles     float64
	gcCPUSeconds float64
}

// runtimeSamples are the runtime/metrics the phases read.
func runtimeSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// measure runs a closed loop of conns connections for d after a GC,
// reads the process counters around it and at every window boundary, and
// runs the workload's whole-phase check.
func measure(e *env, w workload, conns int, d time.Duration) (phase, error) {
	runtime.GC()
	r0, r1 := runtimeSamples(), runtimeSamples()
	metrics.Read(r0)
	stop, done := make(chan struct{}), make(chan []window, 1)
	ctx, cancel := context.WithTimeout(context.Background(), d)
	start := time.Now()
	go monitor(start, d/windows, stop, done)
	t := closedLoop(ctx, e, w, conns, start, d/windows, windows)
	elapsed := time.Since(start)
	cancel()
	close(stop)
	ph := phase{t: t, elapsed: elapsed, windows: <-done}
	metrics.Read(r1)
	ph.allocBytes = sampleValue(r1[0]) - sampleValue(r0[0])
	ph.gcCycles = sampleValue(r1[1]) - sampleValue(r0[1])
	ph.gcCPUSeconds = sampleValue(r1[2]) - sampleValue(r0[2])
	return ph, w.finish(e, t.total().all)
}

// monitor samples the bytes of live and not-yet-swept heap objects every
// 2 ms and closes a window every width, reading CPU time and allocation
// counts at each boundary. The last window lasts until stop is closed.
func monitor(start time.Time, width time.Duration, stop <-chan struct{}, done chan<- []window) {
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var ms runtime.MemStats
	read := func() (time.Duration, time.Duration, uint64) {
		runtime.ReadMemStats(&ms)
		return time.Since(start), cpuTime(), ms.Mallocs
	}
	ws := make([]window, 0, windows)
	at, cpu, mallocs := read()
	cur := window{start: at}
	closeWindow := func() {
		end, c, m := read()
		cur.end, cur.cpu, cur.mallocs = end, c-cpu, m-mallocs
		ws = append(ws, cur)
		cur, cpu, mallocs = window{start: end}, c, m
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			closeWindow()
			done <- ws
			return
		case <-tick.C:
			metrics.Read(heap)
			cur.heapPeak = max(cur.heapPeak, heap[0].Value.Uint64())
			if len(ws) < windows-1 && time.Since(start) >= time.Duration(len(ws)+1)*width {
				closeWindow()
			}
		}
	}
}

// slice is what one window measured.
type slice struct {
	ok                                        int
	rps, p50, p90, p99, cpuMS, allocs, heapMB float64
}

func (ph phase) slices() []slice {
	out := make([]slice, len(ph.windows))
	for k, w := range ph.windows {
		c := &ph.t.slices[k]
		out[k] = slice{
			ok:     c.ok,
			rps:    ratio(float64(c.ok), (w.end - w.start).Seconds()),
			p50:    c.lat.quantileMS(0.50),
			p90:    c.lat.quantileMS(0.90),
			p99:    c.lat.quantileMS(0.99),
			cpuMS:  ratio(float64(w.cpu)/1e6, float64(c.all)),
			allocs: ratio(float64(w.mallocs), float64(c.all)),
			heapMB: float64(w.heapPeak) / (1 << 20),
		}
	}
	return out
}

// medianOf is the median over the windows of f.
func medianOf(sl []slice, f func(slice) float64) float64 {
	xs := make([]float64, len(sl))
	for i, s := range sl {
		xs[i] = f(s)
	}
	return median(xs)
}

// endToEnd reports the end-to-end metrics of an untraced phase: medians
// over its windows.
func (ph phase) endToEnd() map[string]metric {
	sl := ph.slices()
	total := ph.t.total()
	return map[string]metric{
		"latency_p50_ms": {medianOf(sl, func(s slice) float64 { return s.p50 }), "ms"},
		"cpu_ms_per_req": {medianOf(sl, func(s slice) float64 { return s.cpuMS }), "ms"},
		"allocs_per_req": {medianOf(sl, func(s slice) float64 { return s.allocs }), "count"},
		"heap_peak_mb":   {medianOf(sl, func(s slice) float64 { return s.heapMB }), "MB"},
		"success_ratio":  {ratio(float64(total.ok), float64(total.all)), "ratio"},
	}
}

// throughput is the median over the windows of successful requests per
// second.
func (ph phase) throughput() float64 {
	return medianOf(ph.slices(), func(s slice) float64 { return s.rps })
}

// p90 is the median over the windows of the round-trip p90.
func (ph phase) p90() float64 {
	return medianOf(ph.slices(), func(s slice) float64 { return s.p90 })
}

// p99 is the median of the windows' p99s when every window has minTail
// successes, and the p99 of the whole phase otherwise.
func (ph phase) p99() float64 {
	sl := ph.slices()
	for _, s := range sl {
		if s.ok < minTail {
			total := ph.t.total()
			return total.lat.quantileMS(0.99)
		}
	}
	return medianOf(sl, func(s slice) float64 { return s.p99 })
}

// logWindows prints what every window measured to standard error.
func (ph phase) logWindows() {
	for k, s := range ph.slices() {
		fmt.Fprintf(os.Stderr, "servebench: window %d: %d ok, %.1f req/s, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, %.3f cpu ms/req, %.0f allocs/req, heap %.1f MB\n",
			k, s.ok, s.rps, s.p50, s.p90, s.p99, s.cpuMS, s.allocs, s.heapMB)
	}
}
