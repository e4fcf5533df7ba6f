package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the q-th quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks of the sorted sample: the
// estimator numpy calls "linear". xs is sorted in place. An empty sample
// has no percentile and yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(xs) {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[hi]-xs[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer with no calls on a workload
// reports 0 rather than NaN, which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user+system CPU time (getrusage), which
// covers the in-process server and the client alike.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
