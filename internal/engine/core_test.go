package engine_test

// Tests for the event-driven core: configuration validation, dropped-event
// accounting across shutdown, and a -race stress run with concurrent
// coordinators on every site. The last two exercise the live event loops, so
// they run on the wall clock over transport.Network (wallSites), not on
// simCluster.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nbcommit/internal/engine"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// Site IDs must be positive: ID 0 used to be unreportable in crash events
// because the event struct discriminated on a zero-value sentinel.
func TestNewRejectsNonPositiveID(t *testing.T) {
	net := transport.NewNetwork()
	for _, id := range []int{0, -1} {
		_, err := engine.New(engine.Config{
			ID:       id,
			Endpoint: net.Endpoint(1),
			Log:      wal.NewMemoryLog(),
			Resource: newTestResource(),
			Detector: net,
			Protocol: engine.TwoPhase,
		})
		if err == nil {
			t.Fatalf("New accepted site ID %d", id)
		}
	}
}

func TestBeginRejectsOversizedCohort(t *testing.T) {
	c := newSimCluster(t, engine.TwoPhase, 1)
	cohort := make([]int, 0, 70)
	for i := 1; i <= 70; i++ {
		cohort = append(cohort, i)
	}
	if _, err := c.sites[1].Begin("big", cohort, false); err == nil {
		t.Fatal("Begin accepted a cohort larger than 64 sites")
	}
}

// While a site is live, no event may be dropped — only shutdown sheds
// events, and every shed event must be counted.
func TestShutdownDropAccounting(t *testing.T) {
	sites, ids := wallSites(t, engine.ThreePhase, 3, testTimeout)
	for i := 0; i < 20; i++ {
		txid := fmt.Sprintf("drop-%d", i)
		h, err := sites[1].Begin(txid, ids, false)
		if err != nil {
			t.Fatal(err)
		}
		if o, err := h.Wait(2 * time.Second); err != nil || o != engine.OutcomeCommitted {
			t.Fatalf("%s: outcome %v err %v", txid, o, err)
		}
	}
	for id, s := range sites {
		if n := s.DroppedEvents(); n != 0 {
			t.Fatalf("site %d dropped %d events while live", id, n)
		}
	}

	// After Stop, late traffic is discarded — and accounted for.
	s := sites[2]
	s.Stop()
	for i := 0; i < 5; i++ {
		s.Deliver(transport.Message{From: 1, To: 2, Kind: engine.KindVoteReq, TxID: fmt.Sprintf("late-%d", i)})
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.DroppedEvents() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := s.DroppedEvents(); n == 0 {
		t.Fatal("no dropped events counted after Stop")
	}
}

// TestConcurrentCoordinatorsStress runs concurrent coordinators on every
// site of a cluster from many goroutines at once — Begins, waiters and the
// event loops that serve them all — and is meant to run under -race. The
// workers keep committing until every site has forgotten the first
// transaction, so garbage collection (DEC-ACKs, grace timers, end records)
// runs beside live Begins.
func TestConcurrentCoordinatorsStress(t *testing.T) {
	sites, ids := wallSites(t, engine.ThreePhase, 3, 100*time.Millisecond)
	n := len(ids)

	const workers = 8
	const perWorker = 25
	const first = "stress-0-0"
	forgotten := func() bool {
		for _, s := range sites {
			if s.Phase(first) != "?" {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			coord := sites[w%n+1]
			// Past its first perWorker commits a worker paces itself, so the
			// tables do not grow by thousands while the grace runs out.
			pace := time.NewTicker(10 * time.Millisecond)
			defer pace.Stop()
			for i := 0; i < perWorker || !forgotten(); i++ {
				if i >= perWorker {
					<-pace.C
				}
				txid := fmt.Sprintf("stress-%d-%d", w, i)
				h, err := coord.Begin(txid, ids, false)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", txid, err)
					return
				}
				o, err := h.Wait(5 * time.Second)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", txid, err)
					return
				}
				if o != engine.OutcomeCommitted {
					errs <- fmt.Errorf("%s: outcome %v", txid, o)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for id, s := range sites {
		if n := s.DroppedEvents(); n != 0 {
			t.Fatalf("site %d dropped %d events while live", id, n)
		}
	}
}

// BenchmarkEngineCommitAllocs measures allocations per full three-site
// commit (Begin through decision at the coordinator) over an in-memory
// network and WAL — the engine twin of the internal/remote codec alloc
// benchmarks. Every commit is settled (DEC-ACKs, grace timers armed), but
// none is forgotten within a run: the grace at a 1 s timeout is 60 s.
// Guarded by the bench smoke's allocs/op threshold.
func BenchmarkEngineCommitAllocs(b *testing.B) {
	for _, kind := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase, engine.PaxosCommit} {
		b.Run(kind.String(), func(b *testing.B) {
			sites, ids := wallSites(b, kind, 3, time.Second)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txid := fmt.Sprintf("bench-%d", i)
				h, err := sites[1].Begin(txid, ids, false)
				if err != nil {
					b.Fatal(err)
				}
				if o, err := h.Wait(5 * time.Second); err != nil || o != engine.OutcomeCommitted {
					b.Fatalf("%s: outcome %v err %v", txid, o, err)
				}
			}
		})
	}
}

// wallSites starts n live sites of one protocol over an in-memory
// transport.Network, each with its own event loop, and stops them when tb
// ends.
func wallSites(tb testing.TB, kind engine.ProtocolKind, n int, timeout time.Duration) (map[int]*engine.Site, []int) {
	tb.Helper()
	net := transport.NewNetwork()
	sites := make(map[int]*engine.Site, n)
	var ids []int
	for i := 1; i <= n; i++ {
		ids = append(ids, i)
		s, err := engine.New(engine.Config{
			ID:       i,
			Endpoint: net.Endpoint(i),
			Log:      wal.NewMemoryLog(),
			Resource: newTestResource(),
			Detector: net,
			Protocol: kind,
			Timeout:  timeout,
		})
		if err != nil {
			tb.Fatal(err)
		}
		sites[i] = s
		s.Start()
	}
	tb.Cleanup(func() {
		for _, s := range sites {
			s.Stop()
		}
	})
	return sites, ids
}
