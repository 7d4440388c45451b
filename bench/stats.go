package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-th (0..1) order statistic of xs by the
// nearest-rank rule, or 0 with no samples. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median returns the middle value of xs (mean of the two middle values for an
// even count), or 0 with no samples. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// sample is one completed operation: when it ended, relative to the start of
// the measured window, and how long it took.
type sample struct {
	end time.Duration
	lat time.Duration
}

// cutSlices cuts samples into n consecutive slices of length sliceLen, by end
// time, dropping what ended before the window opened (warm-up) or after it
// closed. Each slice holds latencies in milliseconds.
func cutSlices(samples []sample, n int, sliceLen time.Duration) [][]float64 {
	out := make([][]float64, n)
	for _, s := range samples {
		if s.end < 0 {
			continue
		}
		i := int(s.end / sliceLen)
		if i >= n {
			continue
		}
		out[i] = append(out[i], float64(s.lat)/float64(time.Millisecond))
	}
	return out
}

// medianSlice applies f to every slice and returns the median of the results:
// one slow slice (a GC cycle, a noisy neighbour) moves the reported value far
// less than it moves a whole-window statistic.
func medianSlice(sl [][]float64, f func([]float64) float64) float64 {
	vals := make([]float64, len(sl))
	for i, s := range sl {
		vals[i] = f(s)
	}
	return median(vals)
}

// count is the total number of samples over all slices.
func count(sl [][]float64) int {
	n := 0
	for _, s := range sl {
		n += len(s)
	}
	return n
}

// flatten concatenates the slices (for whole-window tail percentiles, which
// need every sample they can get).
func flatten(sl [][]float64) []float64 {
	var out []float64
	for _, s := range sl {
		out = append(out, s...)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a metric with no samples reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
