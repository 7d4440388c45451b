package engine

import (
	"fmt"

	"nbcommit/internal/metrics"
)

// Metrics instruments a site's commit path into a metrics.Registry:
//
//   - engine_phase_latency_seconds{protocol,phase} — the coordinator's view
//     of each protocol phase: "votes" (Begin until the full YES round is
//     in), "acks" (3PC only: vote round until the commit decision, i.e. the
//     paper's extra prepare round — the measurable price of nonblocking),
//     "settle" (decision forced until every participant's DEC-ACK arrived)
//     and "log_force" (a WAL record staged until its batch is durable).
//   - engine_commit_latency_seconds{protocol,outcome} — Begin to decision.
//   - engine_resolutions_total{protocol,outcome} — local resolutions at any
//     role, coordinator or participant.
//   - engine_transactions_tracked{site} / engine_timers_active{site} —
//     transaction-table and armed-timer gauges, registered per Site.
//
// NewMetrics is idempotent for the same registry and protocol kind (the
// registry dedups series), so any number of sites may share one Metrics —
// or one registry — and their samples aggregate.
type Metrics struct {
	reg       *metrics.Registry
	votes     *metrics.Histogram
	acks      *metrics.Histogram
	settle    *metrics.Histogram
	forceWait *metrics.Histogram
	commit    *metrics.Histogram
	abort     *metrics.Histogram
	committed *metrics.Counter
	aborted   *metrics.Counter
	// forced[role][outcome]: WAL records forced per transaction at this
	// site, observed at resolution — the protocol-cost number presumed
	// abort and the read-only optimization exist to shrink. role 0 is
	// participant, 1 coordinator; outcome 0 aborted, 1 committed.
	forced [2][2]*metrics.Histogram
}

// NewMetrics registers (or re-binds) the commit-path series for one
// protocol kind in reg. Pass the result to Config.Metrics.
func NewMetrics(reg *metrics.Registry, kind ProtocolKind) *Metrics {
	p := kind.String()
	reg.Help("engine_phase_latency_seconds", "Commit protocol per-phase latency, coordinator view.")
	reg.Help("engine_commit_latency_seconds", "Begin-to-decision latency at the coordinator.")
	reg.Help("engine_resolutions_total", "Transactions resolved locally, any role.")
	m := &Metrics{
		reg:       reg,
		votes:     reg.Histogram("engine_phase_latency_seconds", "protocol", p, "phase", "votes"),
		acks:      reg.Histogram("engine_phase_latency_seconds", "protocol", p, "phase", "acks"),
		settle:    reg.Histogram("engine_phase_latency_seconds", "protocol", p, "phase", "settle"),
		forceWait: reg.Histogram("engine_phase_latency_seconds", "protocol", p, "phase", "log_force"),
		commit:    reg.Histogram("engine_commit_latency_seconds", "protocol", p, "outcome", "committed"),
		abort:     reg.Histogram("engine_commit_latency_seconds", "protocol", p, "outcome", "aborted"),
		committed: reg.Counter("engine_resolutions_total", "protocol", p, "outcome", "committed"),
		aborted:   reg.Counter("engine_resolutions_total", "protocol", p, "outcome", "aborted"),
	}
	reg.Help("engine_wal_forced_records_per_commit", "WAL records forced per transaction at one site, by role and outcome.")
	for ri, role := range [2]string{"participant", "coordinator"} {
		for oi, outcome := range [2]string{"aborted", "committed"} {
			m.forced[ri][oi] = reg.Histogram("engine_wal_forced_records_per_commit",
				"protocol", p, "role", role, "outcome", outcome)
		}
	}
	return m
}

// ForcedPerCommit returns the forced-records histogram for a role/outcome
// pair; the engine observes each settled transaction's forced count into it.
func (m *Metrics) ForcedPerCommit(coordinator, committed bool) *metrics.Histogram {
	ri, oi := 0, 0
	if coordinator {
		ri = 1
	}
	if committed {
		oi = 1
	}
	return m.forced[ri][oi]
}

// Phases returns the per-phase latency histograms keyed by phase name, so a
// caller holding the registry can read the commit-path breakdown directly.
func (m *Metrics) Phases() map[string]*metrics.Histogram {
	return map[string]*metrics.Histogram{
		"votes":     m.votes,
		"acks":      m.acks,
		"settle":    m.settle,
		"log_force": m.forceWait,
	}
}

// registerSiteGauges binds the per-site transaction-table, timer and
// dropped-event series to s. The func-backed series replace their reader on
// re-registration, so a site recovered under the same ID takes its series
// over.
func (m *Metrics) registerSiteGauges(s *Site) {
	if m.reg == nil {
		return
	}
	site := fmt.Sprint(s.id)
	m.reg.Help("engine_transactions_tracked", "Transactions currently in the site's transaction table.")
	m.reg.GaugeFunc("engine_transactions_tracked", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.txns))
	}, "site", site)
	m.reg.Help("engine_timers_active", "Transactions with an armed protocol or GC timer.")
	m.reg.GaugeFunc("engine_timers_active", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		n := 0
		for _, t := range s.txns {
			if !t.deadline.IsZero() {
				n++
			}
		}
		return float64(n)
	}, "site", site)
	m.reg.Help("engine_events_dropped_total", "Events discarded because the site had stopped.")
	m.reg.CounterFunc("engine_events_dropped_total", func() float64 {
		return float64(s.dropped.Load())
	}, "site", site)
	if vr, ok := s.res.(VersionedResource); ok {
		m.reg.Help("engine_resource_commit_ts", "Newest commit timestamp applied at the site's multi-version resource.")
		m.reg.GaugeFunc("engine_resource_commit_ts", func() float64 {
			return float64(vr.CommitTS())
		}, "site", site)
		m.reg.Help("engine_resource_watermark", "Oldest in-doubt prepare timestamp at the site's resource (0 = none in doubt).")
		m.reg.GaugeFunc("engine_resource_watermark", func() float64 {
			return float64(vr.Watermark())
		}, "site", site)
	}
}
