package engine_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nbcommit/internal/clock"
	"nbcommit/internal/engine"
	"nbcommit/internal/metrics"
	"nbcommit/internal/trace"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// testResource is a scriptable Resource: it records every call and can be
// told to vote NO for chosen transactions.
type testResource struct {
	mu        sync.Mutex
	voteNo    map[string]bool
	prepared  map[string]bool
	committed map[string]string // txid -> redo applied
	aborted   map[string]bool
	redone    []string
}

func newTestResource() *testResource {
	return &testResource{
		voteNo:    map[string]bool{},
		prepared:  map[string]bool{},
		committed: map[string]string{},
		aborted:   map[string]bool{},
	}
}

func (r *testResource) refuse(txid string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.voteNo[txid] = true
}

func (r *testResource) Prepare(txid string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.voteNo[txid] {
		return nil, errors.New("resource refuses (lock conflict)")
	}
	r.prepared[txid] = true
	return []byte("redo:" + txid), nil
}

func (r *testResource) Commit(txid string, redo []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.committed[txid] = string(redo)
	return nil
}

func (r *testResource) Abort(txid string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.aborted[txid] = true
	return nil
}

func (r *testResource) ApplyRedo(redo []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.redone = append(r.redone, string(redo))
	return nil
}

func (r *testResource) didCommit(txid string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.committed[txid]; ok {
		return true
	}
	for _, redo := range r.redone {
		if redo == "redo:"+txid {
			return true
		}
	}
	return false
}

const testTimeout = 60 * time.Millisecond

// waitLimit bounds every step-until wait in virtual time. It is well inside
// the forget grace, so no wait can outlive a settled transaction's record.
const waitLimit = 30 * testTimeout

// grace is the forget grace of a site whose protocol timeout is testTimeout.
var grace = clock.NewBudget(testTimeout).Forget

// simCluster wires n deterministic engine sites over a SimNetwork, which is
// also their perfect failure detector. The sites run no goroutines: the test
// goroutine delivers every message and moves the virtual clock, so a
// schedule is built step by step rather than waited for, and no wait depends
// on the host.
type simCluster struct {
	t     testing.TB
	kind  engine.ProtocolKind
	clk   *clock.Virtual
	net   *transport.SimNetwork
	rec   *trace.Recorder   // nil: sites record nothing
	reg   *metrics.Registry // nil: sites are not instrumented
	sites map[int]*engine.Site
	logs  map[int]wal.Log
	res   map[int]*testResource
	ids   []int
	// drop, when set, loses every message it matches at the moment it is
	// sent. A test may swap it mid-run; what is already in flight stays.
	drop func(transport.Message) bool
	// tripped lists the sites silenced mid-transition (trip), to be crashed
	// once the handler that tripped them has returned.
	tripped []int
}

func newSimCluster(t testing.TB, kind engine.ProtocolKind, n int) *simCluster {
	t.Helper()
	return newTracedCluster(t, kind, n, nil)
}

// newTracedCluster is newSimCluster with every site recording its protocol
// events into rec.
func newTracedCluster(t testing.TB, kind engine.ProtocolKind, n int, rec *trace.Recorder) *simCluster {
	t.Helper()
	logs := make([]wal.Log, n)
	for i := range logs {
		logs[i] = wal.NewMemoryLog()
	}
	return newClusterOver(t, kind, logs, rec, nil)
}

// newClusterOver starts sites 1..len(logs), site i over logs[i-1], each
// recording into rec (nil: nothing) and instrumenting its commit path into
// reg (nil: nothing).
func newClusterOver(t testing.TB, kind engine.ProtocolKind, logs []wal.Log, rec *trace.Recorder, reg *metrics.Registry) *simCluster {
	t.Helper()
	c := &simCluster{
		t:     t,
		kind:  kind,
		clk:   clock.NewVirtual(),
		net:   transport.NewSimNetwork(),
		rec:   rec,
		reg:   reg,
		sites: map[int]*engine.Site{},
		logs:  map[int]wal.Log{},
		res:   map[int]*testResource{},
	}
	c.net.SetDrop(func(m transport.Message) bool { return c.drop != nil && c.drop(m) })
	for i := 1; i <= len(logs); i++ {
		c.ids = append(c.ids, i)
		c.logs[i] = logs[i-1]
		c.start(i, false)
	}
	t.Cleanup(func() {
		for _, s := range c.sites {
			s.Stop()
		}
	})
	return c
}

// start attaches site id with a fresh resource: a new site over its log, or
// (recover) a restarted one that recovers from the log it left.
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
		Trace:         c.rec,
	}
	if c.reg != nil {
		cfg.Metrics = engine.NewMetrics(c.reg, c.kind)
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

// trip kills site id in the middle of a transition, from inside one of its
// own handlers: nothing it sends from now on escapes, and the full crash,
// with its failure report, follows once the handler has returned. Crashing
// at once would run the dying site's own crash watcher inside its handler.
func (c *simCluster) trip(id int) {
	c.net.Silence(id)
	c.tripped = append(c.tripped, id)
}

// step delivers the oldest message in flight or, with none, fires the next
// timer, then crashes any site tripped meanwhile. It reports false when the
// cluster is quiet: nothing in flight and no timer armed.
func (c *simCluster) step() bool {
	if m, ok := c.net.Take(0); ok {
		c.sites[m.To].Deliver(m)
	} else if !c.clk.Step() {
		return false
	}
	for len(c.tripped) > 0 {
		id := c.tripped[0]
		c.tripped = c.tripped[1:]
		c.crash(id)
	}
	return true
}

// until steps the cluster until cond holds. It fails the test if the cluster
// goes quiet first or waitLimit of virtual time passes.
func (c *simCluster) until(what string, cond func() bool) {
	c.t.Helper()
	deadline := c.clk.Now().Add(waitLimit)
	for n := 0; !cond(); n++ {
		if n == 100000 || c.clk.Now().After(deadline) {
			c.t.Fatalf("%s: not reached within %v of virtual time", what, waitLimit)
		}
		if !c.step() {
			c.t.Fatalf("%s: not reached before the cluster went quiet", what)
		}
	}
}

// reach steps the cluster until site id holds txid in the given state letter.
func (c *simCluster) reach(id int, txid, phase string) {
	c.t.Helper()
	c.until(fmt.Sprintf("site %d tx %s in %s", id, txid, phase), func() bool {
		return c.sites[id].Phase(txid) == phase
	})
}

// untilBlocked steps the cluster until site id reports txid blocked.
func (c *simCluster) untilBlocked(id int, txid string) {
	c.t.Helper()
	c.until(fmt.Sprintf("site %d tx %s blocked", id, txid), func() bool {
		_, err := c.sites[id].Outcome(txid)
		return errors.Is(err, engine.ErrBlocked)
	})
}

// resolved steps the cluster until site id has resolved txid, and returns
// the outcome.
func (c *simCluster) resolved(id int, txid string) engine.Outcome {
	c.t.Helper()
	var o engine.Outcome
	c.until(fmt.Sprintf("site %d resolves %s", id, txid), func() bool {
		var err error
		o, err = c.sites[id].Outcome(txid)
		return err == nil && o != engine.OutcomePending
	})
	return o
}

// expect steps the cluster until every given site has resolved txid, and
// asserts that each resolved it as want.
func (c *simCluster) expect(txid string, want engine.Outcome, ids ...int) {
	c.t.Helper()
	for _, id := range ids {
		if got := c.resolved(id, txid); got != want {
			c.t.Fatalf("site %d tx %s: outcome %s, want %s", id, txid, got, want)
		}
	}
}

// settle delivers messages, in send order, until none is in flight.
func (c *simCluster) settle() {
	c.t.Helper()
	for n := 0; c.net.Pending() > 0; n++ {
		if n == 100000 {
			c.t.Fatal("messages still in flight after 100000 deliveries")
		}
		c.step()
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
		c.step()
	}
	c.clk.Advance(end.Sub(c.clk.Now()))
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

func TestThreePCCommit(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 4)
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.expect("t1", engine.OutcomeCommitted, 1, 2, 3, 4)
	for _, id := range c.ids {
		if !c.res[id].didCommit("t1") {
			t.Fatalf("site %d resource did not commit", id)
		}
	}
}

func TestTwoPCCommit(t *testing.T) {
	c := newSimCluster(t, engine.TwoPhase, 3)
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.expect("t1", engine.OutcomeCommitted, 1, 2, 3)
}

func TestUnilateralAbort(t *testing.T) {
	for _, kind := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase} {
		t.Run(kind.String(), func(t *testing.T) {
			c := newSimCluster(t, kind, 3)
			c.res[3].refuse("t1") // deadlock at site 3: vote NO
			if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
				t.Fatal(err)
			}
			c.expect("t1", engine.OutcomeAborted, 1, 2, 3)
			if c.res[1].didCommit("t1") || c.res[2].didCommit("t1") {
				t.Fatal("aborted transaction committed somewhere")
			}
		})
	}
}

func TestCoordinatorOwnVoteNo(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 3)
	c.res[1].refuse("t1") // the coordinator itself votes NO: (no1)
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.expect("t1", engine.OutcomeAborted, 1, 2, 3)
}

func TestParticipantCrashBeforeVoteAborts(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 3)
	// Site 3 crashes before the transaction starts; its vote never arrives.
	c.crash(3)
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.expect("t1", engine.OutcomeAborted, 1, 2)
}

func TestDuplicateBeginRejected(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 2)
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err == nil {
		t.Fatal("duplicate Begin accepted")
	}
	c.expect("t1", engine.OutcomeCommitted, 1, 2)
}

// TestTwoPCBlocks reproduces the paper's blocking scenario: the coordinator
// crashes after collecting YES votes but before any decision escapes; every
// operational participant sits in w and cannot decide.
func TestTwoPCBlocks(t *testing.T) {
	c := newSimCluster(t, engine.TwoPhase, 3)
	// Swallow the coordinator's decision messages, then crash it once both
	// participants have voted.
	c.drop = func(m transport.Message) bool {
		return m.From == 1 && (m.Kind == engine.KindCommit || m.Kind == engine.KindAbort)
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.reach(2, "t1", "w")
	c.reach(3, "t1", "w")
	c.crash(1)
	c.drop = nil

	c.untilBlocked(2, "t1")
	c.untilBlocked(3, "t1")
}

// TestTwoPCUnblocksOnCoordinatorRecovery: the blocked participants resolve
// once the crashed coordinator recovers and re-broadcasts its (logged or
// default-abort) decision. The votes are swallowed so the coordinator
// provably never reaches its commit point: recovery must abort.
func TestTwoPCUnblocksOnCoordinatorRecovery(t *testing.T) {
	c := newSimCluster(t, engine.TwoPhase, 3)
	c.drop = func(m transport.Message) bool {
		if m.To == 1 && (m.Kind == engine.KindYes || m.Kind == engine.KindNo) {
			return true
		}
		return m.From == 1 && (m.Kind == engine.KindCommit || m.Kind == engine.KindAbort)
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.reach(2, "t1", "w")
	c.reach(3, "t1", "w")
	c.crash(1)
	c.drop = nil
	c.untilBlocked(2, "t1")

	// The coordinator crashed before logging an outcome: recovery aborts
	// and re-broadcasts, releasing the participants.
	c.start(1, true)
	c.expect("t1", engine.OutcomeAborted, 1, 2, 3)
}

// TestTwoPCBlocksWhenUnvotedMemberHasNoTrace: a cohort member that never
// received VOTE-REQ has no trace of the transaction, and no trace cannot end
// the uncertainty — it is also what an ex-read-only voter of a committed
// transaction holds. So cooperative termination blocks while the
// coordinator is down, and only the coordinator's recovery (presumed abort:
// it forced no commit record) resolves the transaction.
func TestTwoPCBlocksWhenUnvotedMemberHasNoTrace(t *testing.T) {
	c := newSimCluster(t, engine.TwoPhase, 3)
	// Site 3 never receives VOTE-REQ, so it has no trace of t1.
	c.drop = func(m transport.Message) bool {
		return m.Kind == engine.KindVoteReq && m.To == 3
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.reach(2, "t1", "w")
	c.crash(1)
	c.drop = nil
	c.untilBlocked(2, "t1")

	c.start(1, true)
	c.expect("t1", engine.OutcomeAborted, 1, 2)
}

// TestThreePCTerminationAbortFromW: coordinator crashes before sending any
// PREPARE; all participants are in w, the backup's concurrency set has no
// commit state, so termination aborts — no blocking.
func TestThreePCTerminationAbortFromW(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 4)
	c.drop = func(m transport.Message) bool {
		return m.From == 1 && m.Kind == engine.KindPrepare
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.reach(2, "t1", "w")
	c.reach(3, "t1", "w")
	c.reach(4, "t1", "w")
	c.crash(1)
	c.drop = nil
	c.expect("t1", engine.OutcomeAborted, 2, 3, 4)
}

// TestThreePCTerminationCommitFromP: coordinator crashes after the prepare
// round; the backup is in p, so termination commits everywhere.
func TestThreePCTerminationCommitFromP(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 4)
	c.drop = func(m transport.Message) bool {
		return m.From == 1 && m.Kind == engine.KindCommit
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.reach(2, "t1", "p")
	c.reach(3, "t1", "p")
	c.reach(4, "t1", "p")
	c.crash(1)
	c.drop = nil
	c.expect("t1", engine.OutcomeCommitted, 2, 3, 4)
	for _, id := range []int{2, 3, 4} {
		if !c.res[id].didCommit("t1") {
			t.Fatalf("site %d did not apply the commit", id)
		}
	}
}

// TestThreePCTerminationMixedWP: the PREPARE reached only site 2. The backup
// (site 2, in p) first synchronizes site 3 and 4 to p (phase 1 of the backup
// protocol), then commits.
func TestThreePCTerminationMixedWP(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 4)
	c.drop = func(m transport.Message) bool {
		if m.From != 1 {
			return false
		}
		if m.Kind == engine.KindCommit {
			return true
		}
		return m.Kind == engine.KindPrepare && m.To != 2
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.reach(2, "t1", "p")
	c.reach(3, "t1", "w")
	c.reach(4, "t1", "w")
	c.crash(1)
	c.drop = nil
	c.expect("t1", engine.OutcomeCommitted, 2, 3, 4)
}

// TestThreePCTerminationBackupAlreadyDecided: site 2 received COMMIT before
// the coordinator crashed; as backup it just propagates the decision
// (phase 1 omitted when the backup is in a final state).
func TestThreePCTerminationBackupAlreadyDecided(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 3)
	c.drop = func(m transport.Message) bool {
		return m.From == 1 && m.Kind == engine.KindCommit && m.To == 3
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.expect("t1", engine.OutcomeCommitted, 1, 2)
	c.crash(1)
	c.drop = nil
	c.expect("t1", engine.OutcomeCommitted, 3)
}

// TestThreePCSuccessiveFailures: the coordinator crashes, then the first
// backup crashes mid-termination; the next backup still terminates the
// transaction consistently ("as long as one site remains operational").
func TestThreePCSuccessiveFailures(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 4)
	c.drop = func(m transport.Message) bool {
		return m.From == 1 && m.Kind == engine.KindCommit
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.reach(2, "t1", "p")
	c.reach(3, "t1", "p")
	c.reach(4, "t1", "p")
	c.crash(1)
	c.drop = nil
	// Site 2 becomes backup; kill it immediately, before it can finish.
	c.crash(2)
	c.expect("t1", engine.OutcomeCommitted, 3, 4)
}

// TestParticipantRecoveryLearnsCommit: a participant crashes after voting
// YES; the remaining cohort commits (3PC waives the dead site's ack). On
// recovery the participant asks the cohort and applies the redo image.
func TestParticipantRecoveryLearnsCommit(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 3)
	// Site 3 votes, then crashes before receiving PREPARE.
	c.drop = func(m transport.Message) bool {
		return m.To == 3 && m.Kind == engine.KindPrepare
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.reach(3, "t1", "w")
	// PREPARE goes out only once every vote is in, so site 2 in p proves
	// the coordinator counted site 3's YES before the crash.
	c.reach(2, "t1", "p")
	c.crash(3)
	c.drop = nil
	c.expect("t1", engine.OutcomeCommitted, 1, 2)

	c.start(3, true)
	c.expect("t1", engine.OutcomeCommitted, 3)
	if !c.res[3].didCommit("t1") {
		t.Fatal("recovered site did not apply the redo image")
	}
}

// TestParticipantRecoveryLearnsAbort: as above but the cohort aborted.
func TestParticipantRecoveryLearnsAbort(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 3)
	c.res[2].refuse("t1")
	c.drop = func(m transport.Message) bool {
		return m.To == 3 && (m.Kind == engine.KindAbort || m.Kind == engine.KindPrepare)
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.reach(3, "t1", "w")
	c.crash(3)
	c.drop = nil
	c.expect("t1", engine.OutcomeAborted, 1, 2)

	c.start(3, true)
	c.expect("t1", engine.OutcomeAborted, 3)
	if c.res[3].didCommit("t1") {
		t.Fatal("recovered site committed an aborted transaction")
	}
}

// TestParticipantCrashBeforeVoteDeliveredAborts is the other interleaving
// of TestParticipantRecoveryLearnsCommit: site 3 reaches w, but its YES never reaches the
// coordinator before site 3 crashes. The coordinator cannot commit without
// that vote, so every site, site 3 after recovery included, learns abort.
func TestParticipantCrashBeforeVoteDeliveredAborts(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 3)
	c.drop = func(m transport.Message) bool {
		return m.From == 3 && m.Kind == engine.KindYes
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.reach(3, "t1", "w")
	c.crash(3)
	c.drop = nil
	c.expect("t1", engine.OutcomeAborted, 1, 2)

	c.start(3, true)
	c.expect("t1", engine.OutcomeAborted, 3)
	if c.res[3].didCommit("t1") {
		t.Fatal("recovered site committed an aborted transaction")
	}
}

// TestRecoveredSiteRefusesBackupRole: with the coordinator down and the
// would-be backup freshly recovered (in doubt), termination falls to the
// next operational site, and everyone still terminates consistently.
func TestRecoveredSiteRefusesBackupRole(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 4)
	// Every PREPARE is lost: all participants stay in w.
	c.drop = func(m transport.Message) bool {
		return m.From == 1 && m.Kind == engine.KindPrepare
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.reach(2, "t1", "w")
	c.reach(3, "t1", "w")
	c.reach(4, "t1", "w")
	// The coordinator has every vote; its PREPAREs are lost.
	c.reach(1, "t1", "p")
	// Site 2 crashes and immediately recovers: it is in doubt and must
	// refuse the backup role.
	c.crash(2)
	c.start(2, true)
	c.crash(1)
	c.drop = nil
	c.expect("t1", engine.OutcomeAborted, 3, 4)
	c.expect("t1", engine.OutcomeAborted, 2)
}

// TestConcurrentTransactions drives several transactions with mixed
// outcomes through one cluster at once.
func TestConcurrentTransactions(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 4)
	const n = 8
	for i := 0; i < n; i++ {
		txid := fmt.Sprintf("t%d", i)
		if i%3 == 0 {
			c.res[1+i%4].refuse(txid)
		}
		if _, err := c.sites[1].Begin(txid, c.ids, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		txid := fmt.Sprintf("t%d", i)
		want := engine.OutcomeCommitted
		if i%3 == 0 {
			want = engine.OutcomeAborted
		}
		c.expect(txid, want, 1, 2, 3, 4)
	}
}

// TestNoMixedOutcomes is the atomicity invariant under randomized crashes:
// whatever happens, no two sites decide differently.
func TestNoMixedOutcomes(t *testing.T) {
	for seed := 0; seed < 6; seed++ {
		c := newSimCluster(t, engine.ThreePhase, 4)
		drop := seed
		c.drop = func(m transport.Message) bool {
			// Deterministically drop a varying slice of coordinator
			// traffic.
			return m.From == 1 && (int(m.Kind[0])+m.To+drop)%3 == 0 &&
				m.Kind != engine.KindVoteReq
		}
		if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
			t.Fatal(err)
		}
		c.run(30 * time.Millisecond)
		c.crash(1)
		c.drop = nil

		outcomes := map[engine.Outcome]bool{}
		for _, id := range []int{2, 3, 4} {
			outcomes[c.resolved(id, "t1")] = true
		}
		if outcomes[engine.OutcomeCommitted] && outcomes[engine.OutcomeAborted] {
			t.Fatalf("seed %d: mixed outcomes — atomicity violated", seed)
		}
	}
}

func TestOutcomeStringAndErrors(t *testing.T) {
	if engine.OutcomeCommitted.String() != "committed" ||
		engine.OutcomeAborted.String() != "aborted" ||
		engine.OutcomePending.String() != "pending" {
		t.Fatal("Outcome.String mismatch")
	}
	if engine.TwoPhase.String() != "2PC" || engine.ThreePhase.String() != "3PC" {
		t.Fatal("ProtocolKind.String mismatch")
	}
	c := newSimCluster(t, engine.ThreePhase, 2)
	if _, err := c.sites[1].Outcome("nope"); err == nil {
		t.Fatal("unknown transaction should error")
	}
	if got := c.sites[1].Phase("nope"); got != "?" {
		t.Fatalf("Phase of unknown tx = %q", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := engine.New(engine.Config{}); err == nil {
		t.Fatal("New with nil deps should fail")
	}
}

// TestCohortSubset: transactions touch only a subset of the cluster's
// sites; non-members never hear about them, and concurrent subset
// transactions with disjoint cohorts proceed independently.
func TestCohortSubset(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 5)
	if _, err := c.sites[1].Begin("ta", []int{1, 2}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.sites[3].Begin("tb", []int{3, 4}, false); err != nil {
		t.Fatal(err)
	}
	c.expect("ta", engine.OutcomeCommitted, 1, 2)
	c.expect("tb", engine.OutcomeCommitted, 3, 4)
	// Site 5 heard about neither.
	if got := c.sites[5].Transactions(); len(got) != 0 {
		t.Fatalf("site 5 knows %v", got)
	}
	if got := c.sites[1].Phase("tb"); got != "?" {
		t.Fatalf("site 1 knows tb: %s", got)
	}
}

// TestCohortSubsetTerminationIgnoresOutsiders: a coordinator crash inside a
// 3-of-5 cohort elects the backup among the cohort only.
func TestCohortSubsetTermination(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 5)
	c.drop = func(m transport.Message) bool {
		return m.From == 2 && m.Kind == engine.KindCommit
	}
	// Coordinator 2, cohort {2,4,5}.
	if _, err := c.sites[2].Begin("t1", []int{2, 4, 5}, false); err != nil {
		t.Fatal(err)
	}
	c.reach(4, "t1", "p")
	c.reach(5, "t1", "p")
	c.crash(2)
	c.drop = nil
	// Backup must be site 4 (lowest operational cohort member), not 1 or 3.
	c.expect("t1", engine.OutcomeCommitted, 4, 5)
	if got := c.sites[1].Transactions(); len(got) != 0 {
		t.Fatalf("outsider 1 was dragged in: %v", got)
	}
	if got := c.sites[3].Transactions(); len(got) != 0 {
		t.Fatalf("outsider 3 was dragged in: %v", got)
	}
}
