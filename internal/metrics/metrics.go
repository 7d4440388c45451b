// Package metrics provides the counters and latency summaries used by the
// benchmark harness: lock-free counters and bounded bucketed histograms
// with percentile extraction.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count, safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram bucketing: values below subCount are counted exactly (one
// bucket per nanosecond); above that, log-linear buckets with subCount
// subdivisions per power of two keep the relative quantile error below
// 1/subCount while the whole histogram stays a fixed ~30 KiB regardless of
// how many samples are observed.
const (
	subBits    = 6
	subCount   = 1 << subBits // 64
	numBuckets = (64 - subBits - 1 + 1) * subCount
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := uint(bits.Len64(v)) - (subBits + 1) // v>>e lands in [subCount, 2*subCount)
	return int(e)*subCount + int(v>>e)
}

// bucketMid returns a representative value (the range midpoint) for a
// bucket index; exact buckets return their value.
func bucketMid(idx int) uint64 {
	if idx < subCount {
		return uint64(idx)
	}
	e := uint(idx/subCount - 1)
	m := uint64(idx - int(e)*subCount) // in [subCount, 2*subCount)
	lo := m << e
	hi := ((m + 1) << e) - 1
	return lo + (hi-lo)/2
}

// Histogram collects duration samples into fixed-size buckets and reports
// order statistics: memory use is constant, quantiles are exact below 64ns
// and within ~1.6% relative error above, and count/sum/min/max are always
// exact. Safe for concurrent use; the zero value is ready.
type Histogram struct {
	mu       sync.Mutex
	buckets  [numBuckets]int64
	count    int64
	sum      int64
	min, max time.Duration
}

// Observe records one sample. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	h.buckets[bucketOf(uint64(d))]++
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += int64(d)
	h.mu.Unlock()
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.count)
}

// Quantile returns the q-th (0..1) order statistic, or 0 with no samples.
// The result is a bucket representative clamped to the observed [Min, Max].
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for idx, n := range h.buckets {
		cum += n
		if cum >= rank {
			v := time.Duration(bucketMid(idx))
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Mean returns the arithmetic mean, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Sum returns the exact sum of all samples.
func (h *Histogram) Sum() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Summary formats count/mean/p50/p95/p99/max on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}

// timer measures one operation into a histogram.
type timer struct {
	h     *Histogram
	start time.Time
}

// startTimer begins timing into h.
func startTimer(h *Histogram) timer { return timer{h: h, start: time.Now()} }

// stop records the elapsed time.
func (t timer) stop() { t.h.Observe(time.Since(t.start)) }
