package engine_test

// Garbage collection of settled transactions, in virtual time: the sites run
// deterministically over a SimNetwork and a virtual clock, and the test
// goroutine delivers every message and moves time, so the forget grace (60
// protocol timeouts) costs no wall time and no wait depends on the host.

import (
	"testing"

	"nbcommit/internal/engine"
	"nbcommit/internal/transport"
)

// TestAutoForget: every site garbage-collects settled transactions — the
// coordinator once the whole cohort acknowledged the decision, participants
// after the grace period — and the WAL gains one end record each, so
// recovery (and compaction) skip them. This is the leak fix: a long-lived
// site's transaction table returns to empty. Forgetting is done once: a
// further grace period writes nothing more, and a site recovering from the
// log holds neither transaction in doubt.
func TestAutoForget(t *testing.T) {
	c := newSimCluster(t, engine.TwoPhase, 3)
	c.res[2].refuse("ta") // one aborted, one committed
	for _, txid := range []string{"tc", "ta"} {
		if _, err := c.sites[1].Begin(txid, c.ids, false); err != nil {
			t.Fatal(err)
		}
	}
	c.settle()
	c.expect("tc", engine.OutcomeCommitted, 1)
	c.expect("ta", engine.OutcomeAborted, 1)

	c.run(2 * grace)
	for _, id := range c.ids {
		if got := c.sites[id].Transactions(); len(got) != 0 {
			t.Fatalf("site %d still tracks %v after the grace period", id, got)
		}
	}
	// Every site's WAL must carry end records so recovery skips both
	// transactions entirely.
	for _, id := range c.ids {
		ends := c.endRecords(id)
		for _, txid := range []string{"tc", "ta"} {
			if ends[txid] != 1 {
				t.Fatalf("site %d has %d end records for %s, want 1", id, ends[txid], txid)
			}
		}
	}
	// The committed data survived the forgetting.
	for _, id := range c.ids {
		if !c.res[id].didCommit("tc") {
			t.Fatalf("site %d lost the committed effects", id)
		}
	}

	// A second grace period forgets nothing twice.
	before := map[int]int{}
	for _, id := range c.ids {
		recs, _ := c.logs[id].Records()
		before[id] = len(recs)
	}
	c.run(2 * grace)
	for _, id := range c.ids {
		if recs, _ := c.logs[id].Records(); len(recs) != before[id] {
			t.Fatalf("site %d logged %d more records with nothing left to forget", id, len(recs)-before[id])
		}
	}

	// Recovery after forgetting replays nothing for either transaction: an
	// ended image may come back, resolved, but nothing is in doubt.
	c.crash(1)
	c.start(1, true)
	c.settle()
	for _, txid := range c.sites[1].Transactions() {
		if o, err := c.sites[1].Outcome(txid); err != nil || o == engine.OutcomePending {
			t.Fatalf("recovered %s = %v, %v", txid, o, err)
		}
	}
	if doubt := c.sites[1].InDoubt(); len(doubt) != 0 {
		t.Fatalf("in doubt after recovery: %v", doubt)
	}
	if !c.res[1].didCommit("tc") {
		t.Fatal("recovery lost the forgotten commit's effects")
	}
}

// TestForget: a site forgets a resolved transaction, and only once, while a
// transaction it still holds in doubt stays tracked; a site recovering from
// its log holds the forgotten transaction resolved, never in doubt.
func TestForget(t *testing.T) {
	c := newSimCluster(t, engine.TwoPhase, 2)
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.settle()
	c.expect("t1", engine.OutcomeCommitted, 1, 2)

	// Site 2 is cut off once it has t2's VOTE-REQ, so it waits in doubt
	// for good.
	c.drop = func(m transport.Message) bool {
		return m.Kind != engine.KindVoteReq
	}
	if _, err := c.sites[1].Begin("t2", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.settle()
	c.run(2 * grace)
	for _, id := range c.ids {
		if _, err := c.sites[id].Outcome("t1"); err == nil {
			t.Fatalf("site %d still knows t1 after the grace period", id)
		}
	}
	if txs := c.sites[2].Transactions(); len(txs) != 1 || txs[0] != "t2" {
		t.Fatalf("site 2 transactions = %v, want [t2]", txs)
	}
	if p := c.sites[2].Phase("t2"); p != "w" {
		t.Fatalf("site 2 holds t2 in %s, want w", p)
	}
	if n := c.endRecords(2)["t2"]; n != 0 {
		t.Fatalf("site 2 forgot the unresolved t2 (%d end records)", n)
	}

	// Forgetting is a no-op the second time.
	c.run(2 * grace)
	for _, id := range c.ids {
		if n := c.endRecords(id)["t1"]; n != 1 {
			t.Fatalf("site %d has %d end records for t1, want 1", id, n)
		}
	}

	// Recovery after forgetting replays nothing for t1: an ended image may
	// come back, resolved, but not in doubt.
	c.crash(1)
	c.start(1, true)
	c.settle()
	for _, id := range c.sites[1].Transactions() {
		if id == "t1" {
			if o, err := c.sites[1].Outcome("t1"); err != nil || o == engine.OutcomePending {
				t.Fatalf("recovered t1 = %v, %v", o, err)
			}
		}
	}
	if doubt := c.sites[1].InDoubt(); len(doubt) != 0 {
		t.Fatalf("in doubt after recovery: %v", doubt)
	}
}

// TestAutoForgetReachesCrashedParticipant: a participant that was down when
// the decision went out still acknowledges after recovery, letting the
// coordinator forget; the recovered participant then forgets on its own.
func TestAutoForgetReachesCrashedParticipant(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 3)
	// Site 3 votes YES then crashes before hearing the decision.
	c.drop = func(m transport.Message) bool {
		return m.To == 3 && m.Kind == engine.KindPrepare
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.settle()
	if p2, p3 := c.sites[2].Phase("t1"), c.sites[3].Phase("t1"); p2 != "p" || p3 != "w" {
		t.Fatalf("before the crash: site 2 in %s, site 3 in %s; want p and w", p2, p3)
	}
	c.crash(3)
	c.drop = nil
	c.run(testTimeout)
	c.expect("t1", engine.OutcomeCommitted, 1)

	// The coordinator must keep the outcome while site 3 is down (its
	// DEC-ACK is missing), then forget once the recovered site acknowledges.
	c.run(2 * grace)
	if got := c.sites[1].Transactions(); len(got) != 1 {
		t.Fatalf("coordinator forgot t1 with a participant still unacknowledged: %v", got)
	}

	c.start(3, true)
	c.run(2 * grace)
	if got1, got3 := c.sites[1].Transactions(), c.sites[3].Transactions(); len(got1) != 0 || len(got3) != 0 {
		t.Fatalf("not garbage-collected: coordinator %v, recovered %v", got1, got3)
	}
	if !c.res[3].didCommit("t1") {
		t.Fatal("recovered participant did not apply the commit")
	}
	if c.endRecords(3)["t1"] != 1 {
		t.Fatal("recovered participant forgot t1 without an end record")
	}
}

// TestEndedAbortRecoversAsAbort: under presumed-abort 2PC an aborted
// transaction leaves only a lazy begin record and, once forgotten, an end
// record at the coordinator. A coordinator recovering from that uncompacted
// log must still know the outcome was abort: an in-doubt participant that
// asks it must learn abort, not commit.
func TestEndedAbortRecoversAsAbort(t *testing.T) {
	c := newSimCluster(t, engine.TwoPhase, 2)
	// Site 2 is cut off once it has the VOTE-REQ: its YES, the coordinator's
	// ABORT and its own inquiries are all lost.
	c.drop = func(m transport.Message) bool {
		return m.Kind != engine.KindVoteReq
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.settle()
	if p := c.sites[2].Phase("t1"); p != "w" {
		t.Fatalf("site 2 in %s, want w", p)
	}
	c.run(2 * testTimeout)
	c.expect("t1", engine.OutcomeAborted, 1)
	c.run(2 * grace)
	if p := c.sites[1].Phase("t1"); p != "?" {
		t.Fatalf("coordinator still holds t1 in %s after the grace period", p)
	}
	if c.endRecords(1)["t1"] != 1 {
		t.Fatal("coordinator forgot t1 without an end record")
	}
	c.crash(1)
	c.start(1, true)
	c.drop = nil
	c.run(2 * testTimeout)
	c.expect("t1", engine.OutcomeAborted, 2, 1)
	if c.res[2].didCommit("t1") {
		t.Fatal("participant committed a transaction its coordinator aborted")
	}
}
