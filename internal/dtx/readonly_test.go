package dtx

import (
	"errors"
	"sync"
	"testing"

	"nbcommit/internal/engine"
	"nbcommit/internal/kv"
	"nbcommit/internal/transport"
)

// snapshot is a read-only view over a cohort's stores: one pinned stable
// timestamp per site, taken on first read, the way a nodeapi BEGIN RO
// session reads. It never touches a Txn or the commit engine.
type snapshot struct {
	c  *Cluster
	ts map[int]uint64
}

func (s *snapshot) get(site int, key string) (string, error) {
	st := s.c.Node(site).Store
	ts, ok := s.ts[site]
	if !ok {
		ts = st.AcquireSnapshot()
		s.ts[site] = ts
	}
	return st.ReadAt(ts, key)
}

func (s *snapshot) release() {
	for site, ts := range s.ts {
		s.c.Node(site).Store.ReleaseSnapshot(ts)
	}
}

// TestReadOnlyTxnFastPath: snapshot reads over the cohort's stores see a
// pinned stable timestamp per site that later commits do not move, coexist
// with a writer's exclusive lock, never enlist in the commit protocol, and
// fail as too old once released and collected.
func TestReadOnlyTxnFastPath(t *testing.T) {
	c := newTestCluster(t, 3, engine.TwoPhase)

	w, err := c.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put(1, "x", "1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(2, "y", "1"); err != nil {
		t.Fatal(err)
	}
	if o, err := w.Commit(waitLong); err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("seed commit: %v %v", o, err)
	}

	ro := &snapshot{c: c, ts: map[int]uint64{}}
	if v, err := ro.get(1, "x"); err != nil || v != "1" {
		t.Fatalf("ro read x = %q, %v", v, err)
	}
	if v, err := ro.get(2, "y"); err != nil || v != "1" {
		t.Fatalf("ro read y = %q, %v", v, err)
	}

	// Overwrite both keys while the snapshot is open: its view must not
	// move.
	w2, err := c.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Put(1, "x", "2"); err != nil {
		t.Fatal(err)
	}
	if err := w2.Put(2, "y", "2"); err != nil {
		t.Fatal(err)
	}
	if o, err := w2.Commit(waitLong); err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("overwrite commit: %v %v", o, err)
	}
	for _, id := range []int{1, 2} {
		c.Node(id).Store.GC()
	}
	if v, err := ro.get(1, "x"); err != nil || v != "1" {
		t.Fatalf("pinned read x moved: %q, %v", v, err)
	}
	if v, err := ro.get(2, "y"); err != nil || v != "1" {
		t.Fatalf("pinned read y moved: %q, %v", v, err)
	}

	// The snapshot left no transaction state anywhere: the engines track
	// only the two writers, and no store has anything enlisted.
	for _, id := range c.IDs() {
		n := c.Node(id)
		for _, tx := range n.Site.Transactions() {
			if tx != w.ID && tx != w2.ID {
				t.Fatalf("site %d engine tracks %s", id, tx)
			}
		}
		if txs := n.Store.Pending(); len(txs) != 0 {
			t.Fatalf("site %d store has %v enlisted", id, txs)
		}
	}

	ro.release()
	c.Node(1).Store.GC()
	if _, err := ro.get(1, "x"); !errors.Is(err, kv.ErrSnapshotTooOld) {
		t.Fatalf("read of a released, collected snapshot: %v", err)
	}

	// A fresh snapshot sees the new values, and reads past an in-flight
	// writer holding an exclusive lock.
	w3, err := c.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w3.Put(1, "x", "3"); err != nil {
		t.Fatal(err)
	}
	ro2 := &snapshot{c: c, ts: map[int]uint64{}}
	defer ro2.release()
	if v, err := ro2.get(1, "x"); err != nil || v != "2" {
		t.Fatalf("snapshot under writer lock = %q, %v", v, err)
	}
	if _, err := ro2.get(1, "missing"); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if err := w3.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestReadOnlyKeyedRouting: snapshot reads find each key at the owner the
// shard map gives it, the site its write committed at.
func TestReadOnlyKeyedRouting(t *testing.T) {
	c := newTestCluster(t, 3, engine.ThreePhase)
	r := routerFor(c)

	w, err := c.Begin(r.Site("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]string{"alpha": "a", "beta": "b"} {
		if err := w.Put(r.Site(k), k, v); err != nil {
			t.Fatal(err)
		}
	}
	if o, err := w.Commit(waitLong); err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("keyed commit: %v %v", o, err)
	}

	ro := &snapshot{c: c, ts: map[int]uint64{}}
	defer ro.release()
	if v, err := ro.get(r.Site("alpha"), "alpha"); err != nil || v != "a" {
		t.Fatalf("read alpha = %q, %v", v, err)
	}
	if v, err := ro.get(r.Site("beta"), "beta"); err != nil || v != "b" {
		t.Fatalf("read beta = %q, %v", v, err)
	}
}

// TestReadOnlyMemberForcesNothing: a mixed read/write transaction whose
// cohort includes a site it only read from. That member answers phase 1 with
// READ-ONLY, forces no WAL record, and sees no phase-2 traffic — the whole of
// its participation is one VOTE-REQ in and one READ-ONLY vote out. (Paxos
// Commit is excluded: there every vote is a ballot-0 consensus accept and
// must be durable, so the optimization does not apply.)
func TestReadOnlyMemberForcesNothing(t *testing.T) {
	for _, kind := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase} {
		t.Run(kind.String(), func(t *testing.T) {
			c := newTestCluster(t, 3, kind)
			r := routerFor(c)
			writeKey, readKey := keyAt(t, r, 1, "mix"), keyAt(t, r, 3, "mix")

			seed, err := c.Begin(3)
			if err != nil {
				t.Fatal(err)
			}
			if err := seed.Put(3, readKey, "ro-val"); err != nil {
				t.Fatal(err)
			}
			if o, err := seed.Commit(waitLong); err != nil || o != engine.OutcomeCommitted {
				t.Fatalf("seed commit: %v %v", o, err)
			}
			recsBefore, err := c.Node(3).log.Records()
			if err != nil {
				t.Fatal(err)
			}

			// Tap the wire for the mixed transaction's traffic at site 3.
			var mu sync.Mutex
			var toRO, fromRO []transport.Message
			w, err := c.Begin(1)
			if err != nil {
				t.Fatal(err)
			}
			c.Net.SetDrop(func(m transport.Message) bool {
				mu.Lock()
				defer mu.Unlock()
				if m.TxID == w.ID {
					if m.To == 3 {
						toRO = append(toRO, m)
					}
					if m.From == 3 {
						fromRO = append(fromRO, m)
					}
				}
				return false
			})
			defer c.Net.SetDrop(nil)

			if v, err := w.Get(3, readKey); err != nil || v != "ro-val" {
				t.Fatalf("Get = %q, %v", v, err)
			}
			if err := w.Put(1, writeKey, "w-val"); err != nil {
				t.Fatal(err)
			}
			if o, err := w.Commit(waitLong); err != nil || o != engine.OutcomeCommitted {
				t.Fatalf("mixed commit: %v %v", o, err)
			}

			recsAfter, err := c.Node(3).log.Records()
			if err != nil {
				t.Fatal(err)
			}
			if len(recsAfter) != len(recsBefore) {
				t.Errorf("read-only member logged %d records for the mixed transaction",
					len(recsAfter)-len(recsBefore))
			}
			mu.Lock()
			defer mu.Unlock()
			for _, m := range toRO {
				if m.Kind != engine.KindVoteReq {
					t.Errorf("phase-2 message reached the read-only member: %s", m)
				}
			}
			readOnlyOnWire := 0
			for _, m := range fromRO {
				if m.Kind == engine.KindReadOnly {
					readOnlyOnWire++
				} else {
					t.Errorf("unexpected message from the read-only member: %s", m)
				}
			}
			if readOnlyOnWire != 1 {
				t.Errorf("READ-ONLY votes on the wire = %d, want 1", readOnlyOnWire)
			}
			for _, tx := range c.Node(3).Site.Transactions() {
				if tx == w.ID {
					t.Errorf("read-only member still tracks %s", tx)
				}
			}
			// The write is durable where it belongs and the read site is
			// untouched by it.
			st := c.Node(1).Store
			if v, err := st.ReadAt(st.StableTS(), writeKey); err != nil || v != "w-val" {
				t.Errorf("write key = %q, %v", v, err)
			}
		})
	}
}
