package dtx

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nbcommit/internal/engine"
	"nbcommit/internal/kv"
	"nbcommit/internal/transport"
)

const waitLong = 5 * time.Second

func newTestCluster(t *testing.T, n int, kind engine.ProtocolKind) *Cluster {
	t.Helper()
	c, err := NewCluster(n, Options{
		Protocol:    kind,
		Timeout:     50 * time.Millisecond,
		LockTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func TestDistributedCommit(t *testing.T) {
	for _, kind := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase} {
		t.Run(kind.String(), func(t *testing.T) {
			c := newTestCluster(t, 3, kind)
			tx, err := c.Begin(1)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Put(1, "a", "1"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Put(2, "b", "2"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Put(3, "c", "3"); err != nil {
				t.Fatal(err)
			}
			o, err := tx.Commit(waitLong)
			if err != nil || o != engine.OutcomeCommitted {
				t.Fatalf("commit = %v, %v", o, err)
			}
			for i, want := range map[int]string{1: "1", 2: "2", 3: "3"} {
				key := string(rune('a' + i - 1))
				if v, ok := c.Node(i).Store.Read(key); !ok || v != want {
					t.Fatalf("site %d %s = %q/%v, want %q", i, key, v, ok, want)
				}
			}
		})
	}
}

func TestLockConflictVotesNoAndAborts(t *testing.T) {
	c := newTestCluster(t, 3, engine.ThreePhase)
	// tx1 holds an exclusive lock on site 2's key.
	tx1, err := c.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx1.Put(2, "hot", "tx1"); err != nil {
		t.Fatal(err)
	}
	// tx2 wants the same key; its Put times out (deadlock-resolution) and
	// the client aborts.
	tx2, err := c.Begin(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Put(2, "hot", "tx2"); !errors.Is(err, kv.ErrLockTimeout) {
		t.Fatalf("conflicting put: %v", err)
	}
	if err := tx2.Abort(); err != nil {
		t.Fatal(err)
	}
	// tx1 still commits.
	if o, err := tx1.Commit(waitLong); err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("tx1 commit = %v, %v", o, err)
	}
	if v, _ := c.Node(2).Store.Read("hot"); v != "tx1" {
		t.Fatalf("hot = %q", v)
	}
}

func TestReadYourWritesAcrossSites(t *testing.T) {
	c := newTestCluster(t, 2, engine.ThreePhase)
	tx, _ := c.Begin(1)
	if err := tx.Put(2, "k", "v"); err != nil {
		t.Fatal(err)
	}
	got, err := tx.Get(2, "k")
	if err != nil || got != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := tx.Get(2, "missing"); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if o, err := tx.Commit(waitLong); err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("commit = %v, %v", o, err)
	}
}

func TestAbortRollsBackEverywhere(t *testing.T) {
	c := newTestCluster(t, 3, engine.ThreePhase)
	tx, _ := c.Begin(1)
	tx.Put(1, "x", "1")
	tx.Put(2, "x", "2")
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 2} {
		if _, ok := c.Node(id).Store.Read("x"); ok {
			t.Fatalf("site %d kept aborted write", id)
		}
	}
	// Double-finish is a no-op / error.
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(waitLong); err == nil {
		t.Fatal("commit after abort should fail")
	}
}

func TestDelete(t *testing.T) {
	c := newTestCluster(t, 2, engine.ThreePhase)
	tx, _ := c.Begin(1)
	tx.Put(2, "k", "v")
	if o, err := tx.Commit(waitLong); err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("seed commit = %v, %v", o, err)
	}
	tx2, _ := c.Begin(1)
	if err := tx2.Delete(2, "k"); err != nil {
		t.Fatal(err)
	}
	if o, err := tx2.Commit(waitLong); err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("delete commit = %v, %v", o, err)
	}
	if _, ok := c.Node(2).Store.Read("k"); ok {
		t.Fatal("deleted key survives")
	}
}

// TestCrashRecoveryPreservesCommits: a participant crashes after the cluster
// commits; recovery rebuilds its store from the WAL, including the
// transaction's writes.
func TestCrashRecoveryPreservesCommits(t *testing.T) {
	c := newTestCluster(t, 3, engine.ThreePhase)
	tx, _ := c.Begin(1)
	tx.Put(2, "durable", "yes")
	tx.Put(3, "durable", "yes")
	if o, err := tx.Commit(waitLong); err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("commit = %v, %v", o, err)
	}
	c.Crash(3)
	if err := c.Recover(3); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Node(3).Store.Read("durable"); !ok || v != "yes" {
		t.Fatalf("recovered store: durable = %q/%v", v, ok)
	}
}

// TestCoordinatorCrash3PCStillCommits: end-to-end version of the paper's
// headline — the coordinator dies after the prepare round and the surviving
// sites still commit via the termination protocol; the data is there.
func TestCoordinatorCrash3PCStillCommits(t *testing.T) {
	c := newTestCluster(t, 3, engine.ThreePhase)
	c.Net.SetDropFunc(func(m transport.Message) bool {
		return m.From == 1 && m.Kind == engine.KindCommit
	})
	tx, _ := c.Begin(1)
	tx.Put(2, "k", "v2")
	tx.Put(3, "k", "v3")
	done := make(chan struct{})
	go func() {
		defer close(done)
		tx.Commit(200 * time.Millisecond)
	}()
	// Wait for both participants to reach the buffer state, then kill the
	// coordinator.
	waitPhase(t, c, 2, tx.ID, "p")
	waitPhase(t, c, 3, tx.ID, "p")
	c.Crash(1)
	c.Net.SetDropFunc(nil)
	<-done

	for _, id := range []int{2, 3} {
		o, err := c.Node(id).Site.WaitOutcome(tx.ID, waitLong)
		if err != nil || o != engine.OutcomeCommitted {
			t.Fatalf("site %d: %v, %v", id, o, err)
		}
	}
	if v, _ := c.Node(2).Store.Read("k"); v != "v2" {
		t.Fatalf("site 2 k = %q", v)
	}
	if v, _ := c.Node(3).Store.Read("k"); v != "v3" {
		t.Fatalf("site 3 k = %q", v)
	}
}

func waitPhase(t *testing.T, c *Cluster, site int, txid, phase string) {
	t.Helper()
	deadline := time.Now().Add(waitLong)
	for time.Now().Before(deadline) {
		if c.Node(site).Site.Phase(txid) == phase {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("site %d tx %s never reached %s (now %s)", site, txid, phase, c.Node(site).Site.Phase(txid))
}

func TestBeginUnknownSite(t *testing.T) {
	c := newTestCluster(t, 2, engine.ThreePhase)
	if _, err := c.Begin(9); err == nil {
		t.Fatal("Begin at unknown site should fail")
	}
	tx, _ := c.Begin(1)
	if err := tx.Put(9, "k", "v"); err == nil {
		t.Fatal("Put at unknown site should fail")
	}
}

func TestIDs(t *testing.T) {
	c := newTestCluster(t, 3, engine.ThreePhase)
	ids := c.IDs()
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("IDs = %v", ids)
	}
}

// TestParticipantsSorted: the touched sites come back in ascending order,
// whatever order the transaction touched them in.
func TestParticipantsSorted(t *testing.T) {
	c := newTestCluster(t, 4, engine.ThreePhase)
	tx, _ := c.Begin(3)
	for _, site := range []int{4, 1, 2} {
		if err := tx.Put(site, "k", "v"); err != nil {
			t.Fatal(err)
		}
	}
	// Map iteration order varies from call to call; ask repeatedly.
	for i := 0; i < 20; i++ {
		if got := fmt.Sprint(tx.Participants()); got != "[1 2 3 4]" {
			t.Fatalf("Participants = %s, want [1 2 3 4]", got)
		}
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestDecentralizedParadigm(t *testing.T) {
	for _, kind := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase} {
		t.Run(kind.String(), func(t *testing.T) {
			c, err := NewCluster(3, Options{
				Protocol:    kind,
				Paradigm:    Decentralized,
				Timeout:     50 * time.Millisecond,
				LockTimeout: 50 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Stop)
			tx, err := c.Begin(2)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Put(1, "a", "1"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Put(3, "b", "2"); err != nil {
				t.Fatal(err)
			}
			o, err := tx.Commit(waitLong)
			if err != nil || o != engine.OutcomeCommitted {
				t.Fatalf("commit = %v, %v", o, err)
			}
			if v, _ := c.Node(1).Store.Read("a"); v != "1" {
				t.Fatalf("a = %q", v)
			}
			if v, _ := c.Node(3).Store.Read("b"); v != "2" {
				t.Fatalf("b = %q", v)
			}
		})
	}
}

func TestDecentralizedSurvivesPeerCrash(t *testing.T) {
	c, err := NewCluster(4, Options{
		Protocol:    engine.ThreePhase,
		Paradigm:    Decentralized,
		Timeout:     50 * time.Millisecond,
		LockTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	// Swallow site 4's outgoing votes, then crash it: survivors terminate
	// by electing a backup among themselves.
	c.Net.SetDropFunc(func(m transport.Message) bool {
		return m.From == 4 && (m.Kind == engine.KindDYes || m.Kind == engine.KindDNo)
	})
	tx, err := c.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	for site := 1; site <= 4; site++ {
		if err := tx.Put(site, "k", "v"); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() { defer close(done); tx.Commit(300 * time.Millisecond) }()
	waitPhase(t, c, 1, tx.ID, "w")
	waitPhase(t, c, 2, tx.ID, "w")
	waitPhase(t, c, 3, tx.ID, "w")
	c.Crash(4)
	c.Net.SetDropFunc(nil)
	<-done
	for _, id := range []int{1, 2, 3} {
		o, err := c.Node(id).Site.WaitOutcome(tx.ID, waitLong)
		if err != nil || o != engine.OutcomeAborted {
			t.Fatalf("site %d: %v %v (survivors must abort, peer never voted)", id, o, err)
		}
	}
}

// TestAbortReleasesLocksOfUnvotedMember: a participant whose VOTE-REQ was
// lost still holds the locks its writes took. The ABORT it then hears is for
// a transaction its engine never started, and must still release those
// locks, or the next writer of the key waits out its lock timeout.
func TestAbortReleasesLocksOfUnvotedMember(t *testing.T) {
	for _, kind := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase, engine.PaxosCommit} {
		t.Run(kind.String(), func(t *testing.T) {
			c := newTestCluster(t, 2, kind)
			c.Net.SetDropFunc(func(m transport.Message) bool {
				return m.To == 2 && m.Kind == engine.KindVoteReq
			})
			tx, _ := c.Begin(1)
			if err := tx.Put(2, "k", "v1"); err != nil {
				t.Fatal(err)
			}
			if o, err := tx.Commit(waitLong); o != engine.OutcomeAborted {
				t.Fatalf("commit = %v, %v; want aborted", o, err)
			}
			c.Net.SetDropFunc(nil)

			tx2, _ := c.Begin(1)
			if err := tx2.Put(2, "k", "v2"); err != nil {
				t.Fatalf("second writer of k: %v", err)
			}
			if o, err := tx2.Commit(waitLong); err != nil || o != engine.OutcomeCommitted {
				t.Fatalf("second commit = %v, %v", o, err)
			}
			if v, _ := c.Node(2).Store.Read("k"); v != "v2" {
				t.Fatalf("k = %q, want v2", v)
			}
		})
	}
}
