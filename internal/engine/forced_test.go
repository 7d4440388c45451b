package engine_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"nbcommit/internal/engine"
	"nbcommit/internal/wal"
)

// countingLog wraps a MemoryLog and counts forced appends. Lazy appends ride
// the next force and are deliberately not counted — the whole point of the
// forced-record diet is that they cost no fsync of their own.
type countingLog struct {
	inner  *wal.MemoryLog
	forced atomic.Int64
}

func (l *countingLog) Append(rec wal.Record) (uint64, error) {
	l.forced.Add(1)
	return l.inner.Append(rec)
}

func (l *countingLog) AppendLazy(rec wal.Record) error { return l.inner.AppendLazy(rec) }
func (l *countingLog) Records() ([]wal.Record, error)  { return l.inner.Records() }
func (l *countingLog) Close() error                    { return l.inner.Close() }

// BenchmarkEngineForcedRecords measures WAL records forced per transaction,
// by role, for each protocol family plus the 2PC abort path, over a cohort
// of three and (the 1PC rows) a cohort of one. The counts are the
// protocol's forced-write cost model, independent of device speed, and the
// bench smoke gates them: presumed-abort 2PC must hold participants to <=2
// forces per commit and the coordinator to 0 per abort, and a cohort of one
// forces 1 record per commit and 0 per abort under every family. The sites
// are deterministic and run in virtual time (simCluster), so the counts
// cannot depend on the host.
func BenchmarkEngineForcedRecords(b *testing.B) {
	cases := []struct {
		name   string
		kind   engine.ProtocolKind
		cohort int // sites 1..cohort
		refuse int // the site that votes NO, or 0
	}{
		{"2PC", engine.TwoPhase, 3, 0},
		{"3PC", engine.ThreePhase, 3, 0},
		{"Paxos", engine.PaxosCommit, 3, 0},
		{"2PC-abort", engine.TwoPhase, 3, 2},
		{"1PC-2PC", engine.TwoPhase, 1, 0},
		{"1PC-2PC-abort", engine.TwoPhase, 1, 1},
		{"1PC-3PC", engine.ThreePhase, 1, 0},
		{"1PC-3PC-abort", engine.ThreePhase, 1, 1},
		{"1PC-Paxos", engine.PaxosCommit, 1, 0},
		{"1PC-Paxos-abort", engine.PaxosCommit, 1, 1},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			logs := make([]*countingLog, tc.cohort)
			wlogs := make([]wal.Log, tc.cohort)
			for i := range logs {
				logs[i] = &countingLog{inner: wal.NewMemoryLog()}
				wlogs[i] = logs[i]
			}
			c := newClusterOver(b, tc.kind, wlogs, nil, nil)
			want := engine.OutcomeCommitted
			if tc.refuse != 0 {
				want = engine.OutcomeAborted
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txid := fmt.Sprintf("forced-%d", i)
				if tc.refuse != 0 {
					c.res[tc.refuse].refuse(txid)
				}
				if _, err := c.sites[1].Begin(txid, c.ids, false); err != nil {
					b.Fatal(err)
				}
				// Resolve at every site and deliver what is still in
				// flight, so each op's forced writes are fully accounted
				// before the next op (and before the counters are read).
				c.expect(txid, want, c.ids...)
				c.settle()
			}
			b.StopTimer()
			coord := float64(logs[0].forced.Load()) / float64(b.N)
			part := 0.0
			for _, l := range logs[1:] {
				if f := float64(l.forced.Load()) / float64(b.N); f > part {
					part = f
				}
			}
			b.ReportMetric(coord, "coord-forced/op")
			b.ReportMetric(part, "part-forced/op")
		})
	}
}
