package engine

// Internal regression test for the stale-timer race: before the timer-wheel
// generations, armTimer stopped the old clock.Timer but a timeout event whose
// callback had already fired stayed deliverable, and handleTimeout would run
// it against the re-armed transaction. The wheel hands every fire the
// generation it was armed with, and handleTimeout rejects mismatches. This
// test injects exactly that interleaving — a phase transition re-arms the
// timer while the previous arm's fire is still "in flight" — and requires
// the stale fire to be a no-op.

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
	// armed (generation G).
	meta := TxMeta{Coordinator: 1, Participants: []int{1, 2}}
	s.Deliver(transport.Message{From: 1, To: 2, Kind: KindVoteReq, TxID: "tx1", Body: encodeMeta(meta)})
	s.mu.Lock()
	tx := s.txns["tx1"]
	staleGen := tx.gen
	if tx.phase != phaseWait || staleGen == 0 {
		s.mu.Unlock()
		t.Fatalf("setup: phase=%v gen=%d, want w with armed timer", tx.phase, staleGen)
	}
	s.mu.Unlock()

	// Phase transition w -> p re-arms the timer: the pending fire for
	// generation G is now stale.
	s.Deliver(transport.Message{From: 1, To: 2, Kind: KindPrepare, TxID: "tx1"})
	s.mu.Lock()
	if tx.phase != phasePrepared {
		s.mu.Unlock()
		t.Fatalf("setup: phase=%v, want p after PREPARE", tx.phase)
	}
	if tx.gen == staleGen {
		s.mu.Unlock()
		t.Fatal("phase transition did not advance the timer generation")
	}
	liveGen := tx.gen
	s.mu.Unlock()

	// The stale fire arrives late. The coordinator is reported dead, so a
	// timeout taken at face value would run the termination protocol and —
	// this site being the only operational cohort member in p — commit the
	// transaction on the spot. The generation check must make it a no-op.
	s.handleTimeout("tx1", staleGen)
	s.mu.Lock()
	phase := tx.phase
	s.mu.Unlock()
	if phase != phasePrepared {
		t.Fatalf("stale timeout moved the transaction: phase=%v, want p", phase)
	}

	// The current generation's fire is honored: termination runs and, from
	// the buffer state with every peer dead, decides commit.
	s.handleTimeout("tx1", liveGen)
	if o, _ := s.Outcome("tx1"); o != OutcomeCommitted {
		t.Fatalf("live timeout ignored: outcome=%v, want committed", o)
	}
}

// A timeout fire collected just before resolve must not re-drive a resolved
// transaction's GC timer either — resolve bumps the generation when it stops
// the timer.
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
	tx := s.txns["tx2"]
	staleGen := tx.gen
	s.mu.Unlock()

	// The decision lands; resolve stops the protocol timer and arms the GC
	// grace timer under a new generation.
	s.Deliver(transport.Message{From: 1, To: 2, Kind: KindCommit, TxID: "tx2"})

	// A stale protocol-timeout fire must not run gcTimeout: forgetting now
	// would cut the grace period the participant owes late queriers.
	s.handleTimeout("tx2", staleGen)
	s.mu.Lock()
	_, known := s.txns["tx2"]
	s.mu.Unlock()
	if !known {
		t.Fatal("stale timeout garbage-collected the transaction early")
	}
}
