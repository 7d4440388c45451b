package metrics

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func export(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestRegistryCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	r.Help("requests_total", "Requests served.")
	c := r.Counter("requests_total", "code", "200")
	c.Inc()
	c.Inc()
	r.Counter("requests_total", "code", "500").Inc()
	g := r.Gauge("queue_depth")
	g.Set(7)

	out := export(t, r)
	for _, want := range []string{
		"# HELP requests_total Requests served.",
		"# TYPE requests_total counter",
		`requests_total{code="200"} 2`,
		`requests_total{code="500"} 1`,
		"# TYPE queue_depth gauge",
		"queue_depth 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
}

func TestRegistrySameSeriesSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "site", "1")
	b := r.Counter("hits_total", "site", "1")
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	// Label order must not matter: the rendered block is sorted by key.
	h1 := r.Histogram("lat_seconds", "phase", "votes", "protocol", "3PC")
	h2 := r.Histogram("lat_seconds", "protocol", "3PC", "phase", "votes")
	if h1 != h2 {
		t.Fatal("label order changed series identity")
	}
	out := export(t, r)
	if !strings.Contains(out, `lat_seconds{phase="votes",protocol="3PC",quantile="0.5"}`) {
		t.Errorf("labels not sorted by key:\n%s", out)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge did not panic")
		}
	}()
	r.Gauge("x_total")
}

func TestRegistryHistogramSecondsScaling(t *testing.T) {
	r := NewRegistry()
	r.Histogram("op_seconds").Observe(1500 * time.Millisecond)
	r.Histogram("batch_records").Observe(time.Duration(4))

	out := export(t, r)
	// _seconds histograms scale ns -> s; others export raw sample values.
	if !strings.Contains(out, "op_seconds_sum 1.5") {
		t.Errorf("duration histogram not scaled to seconds:\n%s", out)
	}
	if !strings.Contains(out, "batch_records_sum 4") {
		t.Errorf("raw histogram scaled unexpectedly:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE op_seconds summary",
		`op_seconds{quantile="0.5"}`,
		`op_seconds{quantile="0.99"}`,
		"op_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryFuncInstruments(t *testing.T) {
	r := NewRegistry()
	n := 3.0
	r.GaugeFunc("depth", func() float64 { return n })
	r.CounterFunc("drops_total", func() float64 { return 12 })
	out := export(t, r)
	if !strings.Contains(out, "depth 3") || !strings.Contains(out, "drops_total 12") {
		t.Errorf("func instruments not exported:\n%s", out)
	}
	// Re-registration replaces the reader (a recovered component takes over).
	r.GaugeFunc("depth", func() float64 { return 9 })
	if out := export(t, r); !strings.Contains(out, "depth 9") {
		t.Errorf("GaugeFunc re-registration did not replace reader:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird_total", "path", "a\"b\\c\nd").Inc()
	out := export(t, r)
	if !strings.Contains(out, `weird_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", out)
	}
}

// TestRegistryExportDuringRegistration is the regression for the /metrics
// scrape that overlapped the first use of a label set: WritePrometheus used
// to read a family's series map and order slice after dropping the registry
// lock, which the runtime reports as a fatal concurrent map read and write
// (and -race as a data race). Sized to finish in well under 5 s.
func TestRegistryExportDuringRegistration(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 4, 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = r.WritePrometheus(io.Discard)
				}
			}
		}()
	}
	var reg sync.WaitGroup
	for g := 0; g < writers; g++ {
		reg.Add(1)
		go func(g int) {
			defer reg.Done()
			for i := 0; i < perWriter; i++ {
				l := fmt.Sprintf("%d-%d", g, i)
				r.Counter("probe_total", "l", l).Inc()
				r.Gauge("probe_depth", "l", l).Set(1)
				r.Histogram("probe_seconds", "l", l).Observe(time.Millisecond)
				r.GaugeFunc("probe_fn", func() float64 { return 1 }, "l", l)
			}
		}(g)
	}
	reg.Wait()
	close(stop)
	wg.Wait()
	if got := strings.Count(export(t, r), "probe_total{"); got != writers*perWriter {
		t.Fatalf("exported %d probe_total series, want %d", got, writers*perWriter)
	}
}
