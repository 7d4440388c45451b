package main

import (
	"math"
	"strings"
	"testing"
)

const promBefore = `# HELP wal_sync_latency_seconds Write+fsync duration per batch.
# TYPE wal_sync_latency_seconds summary
wal_sync_latency_seconds{quantile="0.5"} 0.0002
wal_sync_latency_seconds{quantile="0.99"} 0.001
wal_sync_latency_seconds_sum 0.5
wal_sync_latency_seconds_count 1000
# TYPE wal_batch_records summary
wal_batch_records_sum 1200
wal_batch_records_count 1000
# TYPE engine_phase_latency_seconds summary
engine_phase_latency_seconds{phase="acks",protocol="3PC",quantile="0.5"} 0.0006
engine_phase_latency_seconds_sum{phase="acks",protocol="3PC"} 1
engine_phase_latency_seconds_count{phase="acks",protocol="3PC"} 100
wal_log_bytes_total 4096
kv_mvcc_versions 10
`

const promAfter = `wal_sync_latency_seconds{quantile="0.5"} 0.0003
wal_sync_latency_seconds{quantile="0.99"} 0.002
wal_sync_latency_seconds_sum 1.5
wal_sync_latency_seconds_count 3000
wal_batch_records_sum 4200
wal_batch_records_count 3000
engine_phase_latency_seconds{phase="acks",protocol="3PC",quantile="0.5"} 0.0008
engine_phase_latency_seconds_sum{phase="acks",protocol="3PC"} 3
engine_phase_latency_seconds_count{phase="acks",protocol="3PC"} 600
wal_log_bytes_total 8192
kv_mvcc_versions 25
`

func mustParse(t *testing.T, text string) scrape {
	t.Helper()
	s, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPromDeltas(t *testing.T) {
	// Two nodes: the first did the work above, the second coordinated nothing.
	idle := mustParse(t, `engine_phase_latency_seconds{phase="acks",protocol="3PC",quantile="0.5"} 0
engine_phase_latency_seconds_count{phase="acks",protocol="3PC"} 0
wal_sync_latency_seconds{quantile="0.5"} 0.0001
wal_sync_latency_seconds_count 1000
kv_mvcc_versions 5
`)
	w := window{
		before: []scrape{mustParse(t, promBefore), idle},
		after:  []scrape{mustParse(t, promAfter), idle},
	}
	if got := w.delta("wal_log_bytes_total"); got != 4096 {
		t.Errorf("counter delta = %v, want 4096", got)
	}
	// Summary mean from _sum/_count growth: (4200-1200)/(3000-1000).
	if got := w.mean("wal_batch_records"); !near(got, 1.5) {
		t.Errorf("records per batch = %v, want 1.5", got)
	}
	// A _seconds summary is exported in seconds: (1.5-0.5)/(3000-1000) s = 0.5 ms.
	if got := w.mean("wal_sync_latency_seconds") * 1e3; !near(got, 0.5) {
		t.Errorf("mean sync = %v ms, want 0.5", got)
	}
	// Labels are matched whatever order the caller or the exporter used.
	if got := w.delta("engine_phase_latency_seconds_count", "protocol", "3PC", "phase", "acks"); got != 500 {
		t.Errorf("labelled delta = %v, want 500", got)
	}
	// The quantile is the closing value, weighted by window samples: the idle
	// node has none and must not drag the value down.
	if got := w.quantile("0.5", "engine_phase_latency_seconds", "phase", "acks", "protocol", "3PC") * 1e3; !near(got, 0.8) {
		t.Errorf("acks p50 = %v ms, want 0.8", got)
	}
	if got := w.quantile("0.5", "wal_sync_latency_seconds") * 1e3; !near(got, 0.3) {
		t.Errorf("sync p50 = %v ms, want 0.3", got)
	}
	// No samples anywhere: 0, not NaN.
	if got := w.quantile("0.5", "engine_phase_latency_seconds", "phase", "acks", "protocol", "2PC"); got != 0 {
		t.Errorf("quantile without samples = %v, want 0", got)
	}
	if got := w.gauge("kv_mvcc_versions"); got != 30 {
		t.Errorf("gauge sum = %v, want 30", got)
	}
}

func TestPromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"novalue", "x{a=\"b\" 1", "x notanumber"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}
