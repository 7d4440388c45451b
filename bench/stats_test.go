package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestMedianSliceIgnoresOneBadSlice(t *testing.T) {
	ms := time.Millisecond
	var samples []sample
	// Warm-up and overrun samples must be dropped.
	samples = append(samples, sample{end: -ms, lat: 500 * ms}, sample{end: 5 * time.Second, lat: 500 * ms})
	for slice := 0; slice < 5; slice++ {
		lat := 2 * ms
		if slice == 3 {
			lat = 40 * ms // one slow slice
		}
		for i := 0; i < 10; i++ {
			samples = append(samples, sample{end: time.Duration(slice)*time.Second + time.Duration(i)*ms, lat: lat})
		}
	}
	sl := cutSlices(samples, 5, time.Second)
	if count(sl) != 50 {
		t.Fatalf("kept %d samples, want 50", count(sl))
	}
	if got := medianSlice(sl, p50); got != 2 {
		t.Errorf("median slice p50 = %v ms, want 2", got)
	}
	if got := p50(flatten(sl)); got != 2 {
		t.Errorf("whole-window p50 = %v ms, want 2", got)
	}
	if got := p95(flatten(sl)); got != 40 {
		t.Errorf("whole-window p95 = %v ms, want 40: the slow slice owns the tail", got)
	}
	if got := medianSlice(sl, p95); got != 2 {
		t.Errorf("median slice p95 = %v ms, want 2", got)
	}
	perSec := func(xs []float64) float64 { return float64(len(xs)) }
	if got := medianSlice(sl, perSec); got != 10 {
		t.Errorf("median slice rate = %v, want 10", got)
	}
}
