package main

import (
	"math"
	"time"
)

// hist is a log-linear latency histogram: bucket i holds the round trips
// in [histMin·2^(i/histSub), histMin·2^((i+1)/histSub)), so a quantile
// read from it is within 1.1% of the exact one. Its fixed size keeps the
// benchmark's own memory out of the heap it measures.
type hist struct {
	n       int
	buckets [histBuckets]uint32
}

const (
	histSub     = 64 // buckets per doubling
	histMin     = time.Microsecond
	histBuckets = 28 * histSub // up to 2^28 µs, about 4.5 minutes
)

func (h *hist) add(d time.Duration) {
	i := 0
	if d > histMin {
		i = min(int(math.Log2(float64(d)/float64(histMin))*histSub), histBuckets-1)
	}
	h.buckets[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.n += o.n
}

// quantileMS returns the q-quantile in milliseconds, using the rank
// convention of percentile and placing the ranks inside a bucket evenly
// on its log scale. An empty histogram yields 0.
func (h *hist) quantileMS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	cum := 0.0
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if rank < cum+float64(c) {
			pos := (float64(i) + (rank-cum+0.5)/float64(c)) / histSub
			return float64(histMin) * math.Exp2(pos) / 1e6
		}
		cum += float64(c)
	}
	return float64(histMin) * math.Exp2(histBuckets/histSub) / 1e6
}
