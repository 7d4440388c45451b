package dtx

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"nbcommit/internal/engine"
	"nbcommit/internal/kv"
	"nbcommit/internal/transport"
)

// TestReadOnlyTxnFastPath: a read-only transaction reads a pinned snapshot
// per site, never enlists in the commit protocol, and leaves no transaction
// state anywhere.
func TestReadOnlyTxnFastPath(t *testing.T) {
	c := newTestCluster(t, 3, engine.TwoPhase)
	defer c.Stop()

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

	ro := c.BeginReadOnly()
	if v, err := ro.Get(1, "x"); err != nil || v != "1" {
		t.Fatalf("ro read x = %q, %v", v, err)
	}
	if v, err := ro.Get(2, "y"); err != nil || v != "1" {
		t.Fatalf("ro read y = %q, %v", v, err)
	}

	// Overwrite both keys while the read-only transaction is open: its view
	// must not move.
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
	if v, err := ro.Get(1, "x"); err != nil || v != "1" {
		t.Fatalf("pinned read x moved: %q, %v", v, err)
	}
	if v, err := ro.Get(2, "y"); err != nil || v != "1" {
		t.Fatalf("pinned read y moved: %q, %v", v, err)
	}

	// The fast path skipped Begin/Prepare everywhere: no engine record, no
	// store enlistment for the read-only transaction at any site.
	for _, id := range c.IDs() {
		n := c.Node(id)
		for _, tx := range n.Site.Transactions() {
			if tx == ro.ID {
				t.Fatalf("site %d engine tracked %s", id, ro.ID)
			}
		}
		for _, tx := range n.Store.Pending() {
			if tx == ro.ID {
				t.Fatalf("site %d store enlisted %s", id, ro.ID)
			}
		}
	}

	ro.Close()
	if _, err := ro.Get(1, "x"); err == nil {
		t.Fatal("read after Close succeeded")
	}

	// A fresh snapshot sees the new values; snapshot reads coexist with an
	// in-flight writer holding exclusive locks.
	w3, err := c.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w3.Put(1, "x", "3"); err != nil {
		t.Fatal(err)
	}
	ro2 := c.BeginReadOnly()
	defer ro2.Close()
	if v, err := ro2.Get(1, "x"); err != nil || v != "2" {
		t.Fatalf("snapshot under writer lock = %q, %v", v, err)
	}
	if _, err := ro2.Get(1, "missing"); !errors.Is(err, kv.ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
	if err := w3.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestReadOnlyKeyedRouting: GetK routes snapshot reads through the shard map
// like every other keyed verb.
func TestReadOnlyKeyedRouting(t *testing.T) {
	c := newTestCluster(t, 3, engine.ThreePhase)
	defer c.Stop()

	w := c.BeginKeyed()
	if err := w.PutK("alpha", "a"); err != nil {
		t.Fatal(err)
	}
	if err := w.PutK("beta", "b"); err != nil {
		t.Fatal(err)
	}
	if o, err := w.Commit(waitLong); err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("keyed commit: %v %v", o, err)
	}

	ro := c.BeginReadOnly()
	defer ro.Close()
	if v, err := ro.GetK("alpha"); err != nil || v != "a" {
		t.Fatalf("GetK alpha = %q, %v", v, err)
	}
	if v, err := ro.GetK("beta"); err != nil || v != "b" {
		t.Fatalf("GetK beta = %q, %v", v, err)
	}
}

// TestReadOnlyMemberForcesNothing: a mixed read/write keyed transaction whose
// cohort includes a site it only read from. That member answers phase 1 with
// READ-ONLY, forces no WAL record, and sees no phase-2 traffic — the whole of
// its participation is one VOTE-REQ in and one READ-ONLY vote out. (Paxos
// Commit is excluded: there every vote is a ballot-0 consensus accept and
// must be durable, so the optimization does not apply.)
func TestReadOnlyMemberForcesNothing(t *testing.T) {
	for _, kind := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase} {
		t.Run(kind.String(), func(t *testing.T) {
			c := newTestCluster(t, 3, kind)
			keyAt := func(site int) string {
				for i := 0; i < 10000; i++ {
					k := fmt.Sprintf("mix-%d", i)
					if c.Router().Site(k) == site {
						return k
					}
				}
				t.Fatalf("no key maps to site %d", site)
				return ""
			}
			writeKey, readKey := keyAt(1), keyAt(3)

			seed := c.BeginKeyed()
			if err := seed.PutK(readKey, "ro-val"); err != nil {
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
			w := c.BeginKeyed()
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

			if v, err := w.GetK(readKey); err != nil || v != "ro-val" {
				t.Fatalf("GetK = %q, %v", v, err)
			}
			if err := w.PutK(writeKey, "w-val"); err != nil {
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
