package engine

// Internal regression test for the stale-timer race: armTimer re-arms the
// transaction's timer, but a timeout event whose callback had already fired
// stays deliverable, and a handleTimeout that took it at face value would run
// it against the re-armed transaction. handleTimeout acts only once the
// transaction's current deadline has passed. This test injects exactly that
// interleaving — a phase transition re-arms the timer while the previous
// arm's fire is still "in flight" — and requires the stale fire to be a
// no-op.

import (
	"testing"
	"time"

	"nbcommit/internal/clock"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

type nopResource struct{}

func (nopResource) Prepare(txid string) ([]byte, error) { return []byte("r:" + txid), nil }
func (nopResource) Commit(string, []byte) error         { return nil }
func (nopResource) Abort(string) error                  { return nil }
func (nopResource) ApplyRedo([]byte) error              { return nil }

// deadDetector reports every peer as crashed, so any genuine participant
// timeout immediately invokes the termination protocol.
type deadDetector struct{ self int }

func (d deadDetector) Alive(site int) bool  { return site == d.self }
func (d deadDetector) Watch(func(site int)) {}

func TestStaleTimerGenerationRejected(t *testing.T) {
	clk := clock.NewVirtual()
	net := transport.NewSimNetwork()
	s, err := New(Config{
		ID:            2,
		Endpoint:      net.Endpoint(2),
		Log:           wal.NewMemoryLog(),
		Resource:      nopResource{},
		Detector:      deadDetector{self: 2},
		Protocol:      ThreePhase,
		Timeout:       50 * time.Millisecond,
		Clock:         clk,
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()

	// Participant receives the transaction and votes YES: phase w, timer
	// armed for deadline D.
	meta := TxMeta{Coordinator: 1, Participants: []int{1, 2}}
	s.Deliver(transport.Message{From: 1, To: 2, Kind: KindVoteReq, TxID: "tx1", Body: encodeMeta(meta)})
	s.mu.Lock()
	tx := s.txns["tx1"]
	staleDeadline := tx.deadline
	if tx.phase != phaseWait || staleDeadline.IsZero() {
		s.mu.Unlock()
		t.Fatalf("setup: phase=%v deadline=%v, want w with armed timer", tx.phase, staleDeadline)
	}
	s.mu.Unlock()

	// Phase transition w -> p, 10ms later, re-arms the timer: a fire for
	// deadline D is now stale.
	clk.Advance(10 * time.Millisecond)
	s.Deliver(transport.Message{From: 1, To: 2, Kind: KindPrepare, TxID: "tx1"})
	s.mu.Lock()
	if tx.phase != phasePrepared {
		s.mu.Unlock()
		t.Fatalf("setup: phase=%v, want p after PREPARE", tx.phase)
	}
	if !tx.deadline.After(staleDeadline) {
		s.mu.Unlock()
		t.Fatal("phase transition did not move the timer deadline")
	}
	s.mu.Unlock()

	// The stale fire arrives late, at deadline D. The coordinator is
	// reported dead, so a timeout taken at face value would run the
	// termination protocol and — this site being the only operational
	// cohort member in p — commit the transaction on the spot. The new
	// deadline is not yet reached, which must make it a no-op.
	clk.Advance(staleDeadline.Sub(clk.Now()))
	s.handleTimeout("tx1")
	s.mu.Lock()
	phase := tx.phase
	s.mu.Unlock()
	if phase != phasePrepared {
		t.Fatalf("stale timeout moved the transaction: phase=%v, want p", phase)
	}

	// The current arm's fire is honored: termination runs and, from the
	// buffer state with every peer dead, decides commit.
	clk.Advance(10 * time.Millisecond)
	if o, _ := s.Outcome("tx1"); o != OutcomeCommitted {
		t.Fatalf("live timeout ignored: outcome=%v, want committed", o)
	}
}

// A timeout fire collected just before resolve must not re-drive a resolved
// transaction's GC timer either — resolve re-arms the timer for the grace
// period, whose deadline the stale fire has not reached.
func TestStaleTimerAfterResolve(t *testing.T) {
	clk := clock.NewVirtual()
	net := transport.NewSimNetwork()
	s, err := New(Config{
		ID:            2,
		Endpoint:      net.Endpoint(2),
		Log:           wal.NewMemoryLog(),
		Resource:      nopResource{},
		Detector:      deadDetector{self: 2},
		Protocol:      TwoPhase,
		Timeout:       50 * time.Millisecond,
		Clock:         clk,
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()

	meta := TxMeta{Coordinator: 1, Participants: []int{1, 2}}
	s.Deliver(transport.Message{From: 1, To: 2, Kind: KindVoteReq, TxID: "tx2", Body: encodeMeta(meta)})
	s.mu.Lock()
	staleDeadline := s.txns["tx2"].deadline
	s.mu.Unlock()

	// The decision lands; resolve stops the protocol timer and arms the GC
	// grace timer for a later deadline.
	s.Deliver(transport.Message{From: 1, To: 2, Kind: KindCommit, TxID: "tx2"})

	// A stale protocol-timeout fire, arriving at the protocol deadline, must
	// not run gcTimeout: forgetting now would cut the grace period the
	// participant owes late queriers.
	clk.Advance(staleDeadline.Sub(clk.Now()))
	s.handleTimeout("tx2")
	s.mu.Lock()
	_, known := s.txns["tx2"]
	s.mu.Unlock()
	if !known {
		t.Fatal("stale timeout garbage-collected the transaction early")
	}
}

// Stop cancels every armed transaction timer: once the site has stopped, no
// timer is left pending on its clock, and running the clock past every
// deadline queues no event for the stopped site to drop.
func TestStopCancelsTimers(t *testing.T) {
	clk := clock.NewVirtual()
	net := transport.NewSimNetwork()
	s, err := New(Config{
		ID:            2,
		Endpoint:      net.Endpoint(2),
		Log:           wal.NewMemoryLog(),
		Resource:      nopResource{},
		Detector:      deadDetector{self: 2},
		Protocol:      ThreePhase,
		Timeout:       50 * time.Millisecond,
		Clock:         clk,
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	meta := TxMeta{Coordinator: 1, Participants: []int{1, 2}}
	for _, id := range []string{"tx1", "tx2", "tx3"} {
		s.Deliver(transport.Message{From: 1, To: 2, Kind: KindVoteReq, TxID: id, Body: encodeMeta(meta)})
	}
	if _, ok := clk.NextDeadline(); !ok {
		t.Fatal("setup: no timer armed")
	}

	s.Stop()
	if dl, ok := clk.NextDeadline(); ok {
		t.Fatalf("timer still pending after Stop, due %v", dl)
	}
	clk.Advance(time.Hour)
	if n := s.DroppedEvents(); n != 0 {
		t.Fatalf("stopped site dropped %d timer events, want 0", n)
	}
}
