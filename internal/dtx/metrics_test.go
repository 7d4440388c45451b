package dtx

import (
	"strings"
	"testing"
	"time"

	"nbcommit/internal/engine"
	"nbcommit/internal/metrics"
)

// TestClusterMetricsPhaseBreakdown drives committed and aborted transactions
// through an instrumented cluster and checks the full observability path:
// phase histograms fill in, resolution counters count every site, and the
// Prometheus export carries the series a kvnode would serve on /metrics.
func TestClusterMetricsPhaseBreakdown(t *testing.T) {
	for _, kind := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase} {
		t.Run(kind.String(), func(t *testing.T) {
			reg := metrics.NewRegistry()
			c, err := NewCluster(3, Options{
				Protocol:    kind,
				Timeout:     50 * time.Millisecond,
				LockTimeout: 50 * time.Millisecond,
				Registry:    reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Stop)

			const commits = 3
			for i := 0; i < commits; i++ {
				tx, err := c.Begin(1)
				if err != nil {
					t.Fatal(err)
				}
				for site := 1; site <= 3; site++ {
					if err := tx.Put(site, "k", "v"); err != nil {
						t.Fatal(err)
					}
				}
				if o, err := tx.Commit(waitLong); err != nil || o != engine.OutcomeCommitted {
					t.Fatalf("commit = %v, %v", o, err)
				}
			}

			m := engine.NewMetrics(reg, kind)
			phases := m.Phases()
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
			deadline := time.Now().Add(waitLong)
			for phases["settle"].Count() < commits {
				if time.Now().After(deadline) {
					t.Fatalf("settle count = %d, want %d", phases["settle"].Count(), commits)
				}
				time.Sleep(5 * time.Millisecond)
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
				`engine_commit_latency_seconds_count{outcome="committed",protocol="` + kind.String() + `"} `,
				`engine_transactions_tracked{site="1"}`,
				`engine_timers_active{site="2"}`,
			} {
				if !strings.Contains(out, strings.TrimSpace(want)) {
					t.Errorf("export missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestClusterMetricsAbortOutcome checks the aborted-side series.
func TestClusterMetricsAbortOutcome(t *testing.T) {
	reg := metrics.NewRegistry()
	c, err := NewCluster(2, Options{
		Protocol:    engine.ThreePhase,
		Timeout:     50 * time.Millisecond,
		LockTimeout: 50 * time.Millisecond,
		Registry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	// A transaction nobody staged: every store's Prepare fails, the cohort
	// votes NO, and the protocol aborts.
	h, err := c.Node(1).Site.Begin("never-staged", []int{1, 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if o, err := h.Wait(waitLong); err != nil || o != engine.OutcomeAborted {
		t.Fatalf("outcome = %v, %v, want aborted", o, err)
	}
	aborted := reg.Counter("engine_resolutions_total", "protocol", "3PC", "outcome", "aborted")
	deadline := time.Now().Add(waitLong)
	for aborted.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no aborted resolutions recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
