package engine

// Engine-level coverage for snapshot-vs-writer interleavings: a snapshot
// taken between Prepare and decision-apply must read below the in-doubt
// watermark and never return the prepared-but-undecided value. The test
// drives a lone deterministic participant, in virtual time, directly with
// Deliver: each message is handled before Deliver returns, so the window
// between the vote and the decision stays open for as long as the test
// wants, and every assertion is made synchronously.

import (
	"errors"
	"testing"
	"time"

	"nbcommit/internal/clock"
	"nbcommit/internal/kv"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// kvResource adapts kv.Store to the engine's Resource (the same shape
// internal/dtx uses), so the test exercises a real multi-version store.
type kvResource struct{ s *kv.Store }

func (r kvResource) Prepare(txid string) ([]byte, error) {
	ops, err := r.s.Prepare(txid)
	if err != nil {
		return nil, err
	}
	return kv.EncodeWrites(ops), nil
}

func (r kvResource) Commit(txid string, redo []byte) error { return r.s.Commit(txid) }
func (r kvResource) Abort(txid string) error               { return r.s.Abort(txid) }

func (r kvResource) ApplyRedo(redo []byte) error {
	ops, err := kv.DecodeWrites(redo)
	if err != nil {
		return err
	}
	r.s.ApplyRedo(ops)
	return nil
}

func (r kvResource) CommitTS() uint64  { return r.s.CommitTS() }
func (r kvResource) Watermark() uint64 { return r.s.Watermark() }

func newInDoubtParticipant(t *testing.T, kind ProtocolKind) (*Site, *kv.Store) {
	t.Helper()
	net := transport.NewSimNetwork()
	store := kv.NewStore(kv.Options{LockTimeout: time.Second})
	store.ApplyRedo([]kv.WriteOp{{Key: "a", Value: "old"}})
	s, err := New(Config{
		ID:            1,
		Endpoint:      net.Endpoint(1),
		Log:           wal.NewMemoryLog(),
		Resource:      kvResource{store},
		Detector:      net,
		Protocol:      kind,
		Clock:         clock.NewVirtual(), // never advanced: no timer fires
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Stop)
	return s, store
}

func deliverVoteReq(s *Site, txid string) {
	s.Deliver(transport.Message{
		From: 9, To: 1, Kind: KindVoteReq, TxID: txid,
		Body: encodeMeta(TxMeta{Coordinator: 9, Participants: []int{9, 1}}),
	})
}

func TestSnapshotReadsBelowWatermarkWhileInDoubt(t *testing.T) {
	s, store := newInDoubtParticipant(t, TwoPhase)

	// Stage the writer's mutation, then let the engine prepare it. The
	// coordinator (site 9) never answers, so the transaction sits in the
	// in-doubt window indefinitely.
	if err := store.Begin("w"); err != nil {
		t.Fatal(err)
	}
	if err := store.Put("w", "a", "new"); err != nil {
		t.Fatal(err)
	}
	deliverVoteReq(s, "w")

	// The prepare reserved the watermark, above the seed apply's commit ts.
	cts, wm := store.CommitTS(), store.Watermark()
	if wm == 0 || cts >= wm {
		t.Fatalf("commit ts %d, watermark %d: apply point not below the in-doubt reservation", cts, wm)
	}

	// A snapshot inside the window reads strictly below the watermark and
	// sees the old value — never the prepared-but-undecided write.
	v, ts, err := store.SnapshotGet("a")
	if err != nil || v != "old" {
		t.Fatalf("snapshot during in-doubt window = %q, %v", v, err)
	}
	if ts >= wm {
		t.Fatalf("snapshot ts %d not below watermark %d", ts, wm)
	}

	// Decision applies: the watermark clears and the write becomes stable.
	s.Deliver(transport.Message{From: 9, To: 1, Kind: KindCommit, TxID: "w"})
	if wm := store.Watermark(); wm != 0 {
		t.Fatalf("watermark %d after decision apply, want 0", wm)
	}
	if v, _, err := store.SnapshotGet("a"); err != nil || v != "new" {
		t.Fatalf("snapshot after decision-apply = %q, %v", v, err)
	}
	if cts2 := store.CommitTS(); cts2 <= cts {
		t.Fatalf("commit ts not advanced at apply: %d then %d", cts, cts2)
	}
}

func TestSnapshotUnaffectedByAbortedInDoubt(t *testing.T) {
	s, store := newInDoubtParticipant(t, TwoPhase)

	if err := store.Begin("w"); err != nil {
		t.Fatal(err)
	}
	if err := store.Put("w", "a", "never"); err != nil {
		t.Fatal(err)
	}
	deliverVoteReq(s, "w")
	if store.Watermark() == 0 {
		t.Fatal("prepare reserved no watermark")
	}

	s.Deliver(transport.Message{From: 9, To: 1, Kind: KindAbort, TxID: "w"})
	if wm := store.Watermark(); wm != 0 {
		t.Fatalf("watermark %d after abort, want 0", wm)
	}
	if v, _, err := store.SnapshotGet("a"); err != nil || v != "old" {
		t.Fatalf("snapshot after abort = %q, %v", v, err)
	}
	if _, ok := store.Read("a"); !ok {
		t.Fatal("committed state lost across the aborted window")
	}
}

// Sanity for the error contract the fast path depends on: a snapshot read
// never waits on writer locks, even while the writer holds them exclusively.
func TestSnapshotReadNeverBlocksOnLocks(t *testing.T) {
	_, store := newInDoubtParticipant(t, TwoPhase)
	if err := store.Begin("w"); err != nil {
		t.Fatal(err)
	}
	if err := store.Put("w", "a", "new"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if v, _, err := store.SnapshotGet("a"); err != nil || v != "old" {
			t.Errorf("snapshot under exclusive lock = %q, %v", v, err)
		}
		if _, err := store.ReadAt(store.StableTS(), "missing"); !errors.Is(err, kv.ErrNotFound) {
			t.Errorf("missing key: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("snapshot read blocked behind a writer lock")
	}
}
