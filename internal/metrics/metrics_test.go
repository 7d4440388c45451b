package metrics

import (
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("Value = %d", c.Value())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.min != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{30, 10, 20, 40, 50} {
		h.Observe(d)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 30 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.min != 10 || h.Max() != 50 {
		t.Fatalf("Min/Max = %v/%v", h.min, h.Max())
	}
	if q := h.Quantile(0.5); q != 30 {
		t.Fatalf("p50 = %v", q)
	}
	if q := h.Quantile(1.0); q != 50 {
		t.Fatalf("p100 = %v", q)
	}
	if q := h.Quantile(0.0); q != 10 {
		t.Fatalf("p0 = %v", q)
	}
	if s := h.Summary(); s == "" {
		t.Fatal("empty summary")
	}
}

func TestTimer(t *testing.T) {
	var h Histogram
	tm := startTimer(&h)
	time.Sleep(time.Millisecond)
	tm.stop()
	if h.Count() != 1 || h.Max() < time.Millisecond {
		t.Fatalf("timer sample = %v", h.Max())
	}
}

// TestHistogramAccuracy pins the bucketed histogram's error bound against
// exact order statistics over a skewed distribution spanning several
// decades (microseconds to hundreds of milliseconds, like commit
// latencies): every quantile must be within 2% relative error, and the
// histogram must not grow with the number of samples.
func TestHistogramAccuracy(t *testing.T) {
	var h Histogram
	var samples []time.Duration
	// Deterministic LCG so the test cannot flake.
	state := uint64(12345)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	for i := 0; i < 100000; i++ {
		// Exponential-ish skew: microseconds with a long tail.
		d := time.Duration(1000 + next()%1000*next()%300000)
		samples = append(samples, d)
		h.Observe(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999} {
		idx := int(math.Ceil(q*float64(len(samples)))) - 1
		exact := samples[idx]
		got := h.Quantile(q)
		relErr := math.Abs(float64(got-exact)) / float64(exact)
		if relErr > 0.02 {
			t.Errorf("q=%v: got %v, exact %v (rel err %.4f)", q, got, exact, relErr)
		}
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	if got, exact := h.Mean(), sum/time.Duration(len(samples)); got != exact {
		t.Errorf("Mean = %v, exact %v", got, exact)
	}
	if h.min != samples[0] || h.Max() != samples[len(samples)-1] {
		t.Errorf("Min/Max = %v/%v, exact %v/%v", h.min, h.Max(), samples[0], samples[len(samples)-1])
	}
	// Bounded memory: the struct size is fixed, independent of sample count.
	if sz := unsafe.Sizeof(h); sz > 64<<10 {
		t.Errorf("histogram is %d bytes; expected a fixed size under 64KiB", sz)
	}
}

// TestQuickQuantileMonotone: quantiles are monotone in q and bounded by
// min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Observe(time.Duration(v))
		}
		prev := time.Duration(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev || v < h.min || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
