package engine_test

// Garbage collection of settled transactions, in virtual time: the sites run
// deterministically over a SimNetwork and a virtual clock, and the test
// goroutine delivers every message and moves time, so the forget grace (60
// protocol timeouts) costs no wall time and no wait depends on the host.

import (
	"testing"
	"time"

	"nbcommit/internal/clock"
	"nbcommit/internal/engine"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// grace is the forget grace of a site whose protocol timeout is testTimeout.
var grace = clock.NewBudget(testTimeout).Forget

// simCluster wires n deterministic engine sites over a SimNetwork, which is
// also their perfect failure detector.
type simCluster struct {
	t     *testing.T
	kind  engine.ProtocolKind
	clk   *clock.Virtual
	net   *transport.SimNetwork
	sites map[int]*engine.Site
	logs  map[int]*wal.MemoryLog
	res   map[int]*testResource
	ids   []int
	// drop, when set, loses every message it matches instead of
	// delivering it.
	drop func(transport.Message) bool
}

func newSimCluster(t *testing.T, kind engine.ProtocolKind, n int) *simCluster {
	t.Helper()
	c := &simCluster{
		t:     t,
		kind:  kind,
		clk:   clock.NewVirtual(),
		net:   transport.NewSimNetwork(),
		sites: map[int]*engine.Site{},
		logs:  map[int]*wal.MemoryLog{},
		res:   map[int]*testResource{},
	}
	for i := 1; i <= n; i++ {
		c.ids = append(c.ids, i)
		c.logs[i] = wal.NewMemoryLog()
		c.start(i, false)
	}
	t.Cleanup(func() {
		for _, s := range c.sites {
			s.Stop()
		}
	})
	return c
}

// start attaches site id with a fresh resource: a new site over its empty
// log, or (recover) a restarted one that recovers from the log it left.
func (c *simCluster) start(id int, recover bool) {
	c.t.Helper()
	c.res[id] = newTestResource()
	cfg := engine.Config{
		ID:            id,
		Endpoint:      c.net.Endpoint(id),
		Log:           c.logs[id],
		Resource:      c.res[id],
		Detector:      c.net,
		Protocol:      c.kind,
		Timeout:       testTimeout,
		Clock:         c.clk,
		Deterministic: true,
	}
	var s *engine.Site
	var err error
	if recover {
		s, err = engine.Recover(cfg)
	} else if s, err = engine.New(cfg); err == nil {
		s.Start()
	}
	if err != nil {
		c.t.Fatal(err)
	}
	c.sites[id] = s
}

// crash stops a site and has the network report its failure.
func (c *simCluster) crash(id int) {
	c.sites[id].Stop()
	c.net.Crash(id)
}

// settle delivers messages, in send order, until none is in flight.
func (c *simCluster) settle() {
	c.t.Helper()
	for n := 0; c.net.Pending() > 0; n++ {
		if n == 100000 {
			c.t.Fatal("messages still in flight after 100000 deliveries")
		}
		m, _ := c.net.Take(0)
		if c.drop != nil && c.drop(m) {
			continue
		}
		c.sites[m.To].Deliver(m)
	}
}

// run moves virtual time forward by d, firing each timer in deadline order
// and delivering the messages it sends before the next one fires.
func (c *simCluster) run(d time.Duration) {
	c.t.Helper()
	end := c.clk.Now().Add(d)
	for {
		c.settle()
		if dl, ok := c.clk.NextDeadline(); !ok || dl.After(end) {
			break
		}
		c.clk.Step()
	}
	c.clk.Advance(end.Sub(c.clk.Now()))
}

// expect asserts that every given site knows txid's outcome as want.
func (c *simCluster) expect(txid string, want engine.Outcome, ids ...int) {
	c.t.Helper()
	for _, id := range ids {
		if got, err := c.sites[id].Outcome(txid); err != nil || got != want {
			c.t.Fatalf("site %d tx %s: outcome %v (%v), want %s", id, txid, got, err, want)
		}
	}
}

// endRecords counts each txid's end records in site id's WAL.
func (c *simCluster) endRecords(id int) map[string]int {
	c.t.Helper()
	recs, err := c.logs[id].Records()
	if err != nil {
		c.t.Fatal(err)
	}
	ends := map[string]int{}
	for _, r := range recs {
		if r.Type == wal.RecEnd {
			ends[r.TxID]++
		}
	}
	return ends
}

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
