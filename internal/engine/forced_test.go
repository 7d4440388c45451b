package engine_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"nbcommit/internal/engine"
	"nbcommit/internal/transport"
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
// forces 1 record per commit and 0 per abort under every family.
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
			net := transport.NewNetwork()
			n := tc.cohort
			sites := make(map[int]*engine.Site, n)
			logs := make(map[int]*countingLog, n)
			resources := make(map[int]*testResource, n)
			var ids []int
			for i := 1; i <= n; i++ {
				ids = append(ids, i)
				logs[i] = &countingLog{inner: wal.NewMemoryLog()}
				resources[i] = newTestResource()
				s, err := engine.New(engine.Config{
					ID:       i,
					Endpoint: net.Endpoint(i),
					Log:      logs[i],
					Resource: resources[i],
					Detector: net,
					Protocol: tc.kind,
					Timeout:  time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				sites[i] = s
				s.Start()
			}
			defer func() {
				for _, s := range sites {
					s.Stop()
				}
			}()
			want := engine.OutcomeCommitted
			if tc.refuse != 0 {
				want = engine.OutcomeAborted
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txid := fmt.Sprintf("forced-%d", i)
				if tc.refuse != 0 {
					resources[tc.refuse].refuse(txid)
				}
				h, err := sites[1].Begin(txid, ids, false)
				if err != nil {
					b.Fatal(err)
				}
				// Wait at every site so each op's forced writes are fully
				// accounted before the next op (and before the counters are
				// read): the coordinator through its handle, the
				// participants by txid.
				if o, err := h.Wait(5 * time.Second); err != nil || o != want {
					b.Fatalf("%s at site 1: outcome %v err %v", txid, o, err)
				}
				for _, id := range ids[1:] {
					if o, err := sites[id].WaitOutcome(txid, 5*time.Second); err != nil || o != want {
						b.Fatalf("%s at site %d: outcome %v err %v", txid, id, o, err)
					}
				}
			}
			b.StopTimer()
			coord := float64(logs[1].forced.Load()) / float64(b.N)
			part := 0.0
			for _, id := range ids[1:] {
				if f := float64(logs[id].forced.Load()) / float64(b.N); f > part {
					part = f
				}
			}
			b.ReportMetric(coord, "coord-forced/op")
			b.ReportMetric(part, "part-forced/op")
		})
	}
}
