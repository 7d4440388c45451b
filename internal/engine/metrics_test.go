package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"nbcommit/internal/engine"
	"nbcommit/internal/metrics"
	"nbcommit/internal/wal"
)

// newMetricsCluster is a simCluster of n sites whose commit paths all
// instrument reg.
func newMetricsCluster(t *testing.T, kind engine.ProtocolKind, n int, reg *metrics.Registry) *simCluster {
	t.Helper()
	logs := make([]wal.Log, n)
	for i := range logs {
		logs[i] = wal.NewMemoryLog()
	}
	return newClusterOver(t, kind, logs, nil, reg)
}

// TestClusterMetricsPhaseBreakdown drives committed transactions through an
// instrumented cluster and checks the full observability path: phase
// histograms fill in, resolution counters count every site, and the
// Prometheus export carries the series a kvnode serves on /metrics.
func TestClusterMetricsPhaseBreakdown(t *testing.T) {
	for _, kind := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase} {
		t.Run(kind.String(), func(t *testing.T) {
			reg := metrics.NewRegistry()
			c := newMetricsCluster(t, kind, 3, reg)

			const commits = 3
			for i := 0; i < commits; i++ {
				txid := fmt.Sprintf("t%d", i)
				if _, err := c.sites[1].Begin(txid, c.ids, false); err != nil {
					t.Fatal(err)
				}
				c.expect(txid, engine.OutcomeCommitted, c.ids...)
			}

			phases := engine.NewMetrics(reg, kind).Phases()
			if got := phases["votes"].Count(); got != commits {
				t.Fatalf("votes count = %d, want %d", got, commits)
			}
			if phases["log_force"].Count() == 0 {
				t.Fatal("no log-force samples")
			}
			if kind == engine.ThreePhase {
				if got := phases["acks"].Count(); got != commits {
					t.Fatalf("acks count = %d, want %d", got, commits)
				}
			} else if got := phases["acks"].Count(); got != 0 {
				t.Fatalf("2PC recorded %d ack samples", got)
			}

			// Settle closes when every participant's DEC-ACK is in.
			c.until(fmt.Sprintf("settle count %d", commits), func() bool {
				return phases["settle"].Count() >= commits
			})
			if got := phases["settle"].Count(); got != commits {
				t.Fatalf("settle count = %d, want %d", got, commits)
			}

			// Every site resolves each transaction locally.
			committed := reg.Counter("engine_resolutions_total",
				"protocol", kind.String(), "outcome", "committed")
			if got := committed.Value(); got != 3*commits {
				t.Fatalf("committed resolutions = %d, want %d", got, 3*commits)
			}

			var b strings.Builder
			if err := reg.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			for _, want := range []string{
				`engine_phase_latency_seconds{phase="votes",protocol="` + kind.String() + `",quantile="0.5"}`,
				`engine_commit_latency_seconds_count{outcome="committed",protocol="` + kind.String() + `"}`,
				`engine_transactions_tracked{site="1"}`,
				`engine_timers_active{site="2"}`,
			} {
				if !strings.Contains(out, want) {
					t.Errorf("export missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestClusterMetricsAbortOutcome checks the aborted-side series: a
// participant votes NO, and the abort is counted as a resolution and timed
// as the coordinator's begin-to-decision latency.
func TestClusterMetricsAbortOutcome(t *testing.T) {
	for _, kind := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase} {
		t.Run(kind.String(), func(t *testing.T) {
			reg := metrics.NewRegistry()
			c := newMetricsCluster(t, kind, 2, reg)
			c.res[2].refuse("t1")
			if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
				t.Fatal(err)
			}
			c.expect("t1", engine.OutcomeAborted, c.ids...)

			aborted := reg.Counter("engine_resolutions_total", "protocol", kind.String(), "outcome", "aborted")
			if aborted.Value() == 0 {
				t.Fatal("no aborted resolutions recorded")
			}
			latency := reg.Histogram("engine_commit_latency_seconds", "protocol", kind.String(), "outcome", "aborted")
			if got := latency.Count(); got != 1 {
				t.Fatalf("aborted commit-latency samples = %d, want 1", got)
			}
			committed := reg.Counter("engine_resolutions_total", "protocol", kind.String(), "outcome", "committed")
			if got := committed.Value(); got != 0 {
				t.Fatalf("committed resolutions = %d after an abort", got)
			}
		})
	}
}
