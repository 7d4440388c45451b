package engine_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"nbcommit/internal/engine"
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

// cluster wires n engine sites over an in-memory network with a perfect
// failure detector.
type cluster struct {
	t     *testing.T
	net   *transport.Network
	kind  engine.ProtocolKind
	sites map[int]*engine.Site
	logs  map[int]*wal.MemoryLog
	res   map[int]*testResource
	ids   []int
}

const testTimeout = 60 * time.Millisecond

func newCluster(t *testing.T, kind engine.ProtocolKind, n int) *cluster {
	t.Helper()
	c := &cluster{
		t:     t,
		net:   transport.NewNetwork(),
		kind:  kind,
		sites: map[int]*engine.Site{},
		logs:  map[int]*wal.MemoryLog{},
		res:   map[int]*testResource{},
	}
	for i := 1; i <= n; i++ {
		c.ids = append(c.ids, i)
		c.logs[i] = wal.NewMemoryLog()
		c.res[i] = newTestResource()
		c.startSite(i)
	}
	t.Cleanup(func() {
		for _, s := range c.sites {
			s.Stop()
		}
	})
	return c
}

func (c *cluster) startSite(id int) {
	s, err := engine.New(engine.Config{
		ID:       id,
		Endpoint: c.net.Endpoint(id),
		Log:      c.logs[id],
		Resource: c.res[id],
		Detector: c.net,
		Protocol: c.kind,
		Timeout:  testTimeout,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	c.sites[id] = s
	s.Start()
}

// crash fails a site: the network reports it and its loop halts.
func (c *cluster) crash(id int) {
	c.net.Crash(id)
	c.sites[id].Stop()
}

// recover restarts a crashed site from its WAL with a fresh resource.
func (c *cluster) recoverSite(id int) {
	c.res[id] = newTestResource()
	s, err := engine.Recover(engine.Config{
		ID:       id,
		Endpoint: c.net.Endpoint(id),
		Log:      c.logs[id],
		Resource: c.res[id],
		Detector: c.net,
		Protocol: c.kind,
		Timeout:  testTimeout,
	})
	if err != nil {
		c.t.Fatal(err)
	}
	c.sites[id] = s
}

// expect asserts that every given site resolves txid to the wanted outcome.
func (c *cluster) expect(txid string, want engine.Outcome, siteIDs ...int) {
	c.t.Helper()
	for _, id := range siteIDs {
		got, err := c.sites[id].WaitOutcome(txid, 5*time.Second)
		if err != nil {
			c.t.Fatalf("site %d tx %s: %v", id, txid, err)
		}
		if got != want {
			c.t.Fatalf("site %d tx %s: outcome %s, want %s", id, txid, got, want)
		}
	}
}

// waitPhase polls until the site reports the given canonical state letter.
func (c *cluster) waitPhase(id int, txid, phase string) {
	c.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.sites[id].Phase(txid) == phase {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatalf("site %d tx %s: phase %s never reached (now %s)",
		id, txid, phase, c.sites[id].Phase(txid))
}

// waitBlocked polls until the site reports ErrBlocked for txid.
func (c *cluster) waitBlocked(id int, txid string) {
	c.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := c.sites[id].Outcome(txid); errors.Is(err, engine.ErrBlocked) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Fatalf("site %d tx %s never blocked", id, txid)
}

func TestThreePCCommit(t *testing.T) {
	c := newCluster(t, engine.ThreePhase, 4)
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
	c := newCluster(t, engine.TwoPhase, 3)
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.expect("t1", engine.OutcomeCommitted, 1, 2, 3)
}

func TestUnilateralAbort(t *testing.T) {
	for _, kind := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase} {
		t.Run(kind.String(), func(t *testing.T) {
			c := newCluster(t, kind, 3)
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
	c := newCluster(t, engine.ThreePhase, 3)
	c.res[1].refuse("t1") // the coordinator itself votes NO: (no1)
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.expect("t1", engine.OutcomeAborted, 1, 2, 3)
}

func TestParticipantCrashBeforeVoteAborts(t *testing.T) {
	c := newCluster(t, engine.ThreePhase, 3)
	// Site 3 crashes before the transaction starts; its vote never arrives.
	c.crash(3)
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.expect("t1", engine.OutcomeAborted, 1, 2)
}

func TestDuplicateBeginRejected(t *testing.T) {
	c := newCluster(t, engine.ThreePhase, 2)
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
	c := newCluster(t, engine.TwoPhase, 3)
	// Swallow the coordinator's decision messages, then crash it once both
	// participants have voted.
	c.net.SetDropFunc(func(m transport.Message) bool {
		return m.From == 1 && (m.Kind == engine.KindCommit || m.Kind == engine.KindAbort)
	})
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.waitPhase(2, "t1", "w")
	c.waitPhase(3, "t1", "w")
	c.crash(1)
	c.net.SetDropFunc(nil)

	c.waitBlocked(2, "t1")
	c.waitBlocked(3, "t1")
}

// TestTwoPCUnblocksOnCoordinatorRecovery: the blocked participants resolve
// once the crashed coordinator recovers and re-broadcasts its (logged or
// default-abort) decision. The votes are swallowed so the coordinator
// provably never reaches its commit point: recovery must abort.
func TestTwoPCUnblocksOnCoordinatorRecovery(t *testing.T) {
	c := newCluster(t, engine.TwoPhase, 3)
	c.net.SetDropFunc(func(m transport.Message) bool {
		if m.To == 1 && (m.Kind == engine.KindYes || m.Kind == engine.KindNo) {
			return true
		}
		return m.From == 1 && (m.Kind == engine.KindCommit || m.Kind == engine.KindAbort)
	})
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.waitPhase(2, "t1", "w")
	c.waitPhase(3, "t1", "w")
	c.crash(1)
	c.net.SetDropFunc(nil)
	c.waitBlocked(2, "t1")

	// The coordinator crashed before logging an outcome: recovery aborts
	// and re-broadcasts, releasing the participants.
	c.recoverSite(1)
	c.expect("t1", engine.OutcomeAborted, 1, 2, 3)
}

// TestTwoPCBlocksWhenUnvotedMemberHasNoTrace: a cohort member that never
// received VOTE-REQ has no trace of the transaction, and no trace cannot end
// the uncertainty — it is also what an ex-read-only voter of a committed
// transaction holds. So cooperative termination blocks while the
// coordinator is down, and only the coordinator's recovery (presumed abort:
// it forced no commit record) resolves the transaction.
func TestTwoPCBlocksWhenUnvotedMemberHasNoTrace(t *testing.T) {
	c := newCluster(t, engine.TwoPhase, 3)
	// Site 3 never receives VOTE-REQ, so it has no trace of t1.
	c.net.SetDropFunc(func(m transport.Message) bool {
		return m.Kind == engine.KindVoteReq && m.To == 3
	})
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.waitPhase(2, "t1", "w")
	c.crash(1)
	c.net.SetDropFunc(nil)
	c.waitBlocked(2, "t1")

	c.recoverSite(1)
	c.expect("t1", engine.OutcomeAborted, 1, 2)
}

// TestThreePCTerminationAbortFromW: coordinator crashes before sending any
// PREPARE; all participants are in w, the backup's concurrency set has no
// commit state, so termination aborts — no blocking.
func TestThreePCTerminationAbortFromW(t *testing.T) {
	c := newCluster(t, engine.ThreePhase, 4)
	c.net.SetDropFunc(func(m transport.Message) bool {
		return m.From == 1 && m.Kind == engine.KindPrepare
	})
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.waitPhase(2, "t1", "w")
	c.waitPhase(3, "t1", "w")
	c.waitPhase(4, "t1", "w")
	c.crash(1)
	c.net.SetDropFunc(nil)
	c.expect("t1", engine.OutcomeAborted, 2, 3, 4)
}

// TestThreePCTerminationCommitFromP: coordinator crashes after the prepare
// round; the backup is in p, so termination commits everywhere.
func TestThreePCTerminationCommitFromP(t *testing.T) {
	c := newCluster(t, engine.ThreePhase, 4)
	c.net.SetDropFunc(func(m transport.Message) bool {
		return m.From == 1 && m.Kind == engine.KindCommit
	})
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.waitPhase(2, "t1", "p")
	c.waitPhase(3, "t1", "p")
	c.waitPhase(4, "t1", "p")
	c.crash(1)
	c.net.SetDropFunc(nil)
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
	c := newCluster(t, engine.ThreePhase, 4)
	c.net.SetDropFunc(func(m transport.Message) bool {
		if m.From != 1 {
			return false
		}
		if m.Kind == engine.KindCommit {
			return true
		}
		return m.Kind == engine.KindPrepare && m.To != 2
	})
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.waitPhase(2, "t1", "p")
	c.waitPhase(3, "t1", "w")
	c.waitPhase(4, "t1", "w")
	c.crash(1)
	c.net.SetDropFunc(nil)
	c.expect("t1", engine.OutcomeCommitted, 2, 3, 4)
}

// TestThreePCTerminationBackupAlreadyDecided: site 2 received COMMIT before
// the coordinator crashed; as backup it just propagates the decision
// (phase 1 omitted when the backup is in a final state).
func TestThreePCTerminationBackupAlreadyDecided(t *testing.T) {
	c := newCluster(t, engine.ThreePhase, 3)
	c.net.SetDropFunc(func(m transport.Message) bool {
		return m.From == 1 && m.Kind == engine.KindCommit && m.To == 3
	})
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.expect("t1", engine.OutcomeCommitted, 1, 2)
	c.crash(1)
	c.net.SetDropFunc(nil)
	c.expect("t1", engine.OutcomeCommitted, 3)
}

// TestThreePCSuccessiveFailures: the coordinator crashes, then the first
// backup crashes mid-termination; the next backup still terminates the
// transaction consistently ("as long as one site remains operational").
func TestThreePCSuccessiveFailures(t *testing.T) {
	c := newCluster(t, engine.ThreePhase, 4)
	c.net.SetDropFunc(func(m transport.Message) bool {
		return m.From == 1 && m.Kind == engine.KindCommit
	})
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.waitPhase(2, "t1", "p")
	c.waitPhase(3, "t1", "p")
	c.waitPhase(4, "t1", "p")
	c.crash(1)
	c.net.SetDropFunc(nil)
	// Site 2 becomes backup; kill it immediately, before it can finish.
	c.crash(2)
	c.expect("t1", engine.OutcomeCommitted, 3, 4)
}

// TestParticipantRecoveryLearnsCommit: a participant crashes after voting
// YES; the remaining cohort commits (3PC waives the dead site's ack). On
// recovery the participant asks the cohort and applies the redo image.
func TestParticipantRecoveryLearnsCommit(t *testing.T) {
	c := newCluster(t, engine.ThreePhase, 3)
	// Site 3 votes, then crashes before receiving PREPARE.
	c.net.SetDropFunc(func(m transport.Message) bool {
		return m.To == 3 && m.Kind == engine.KindPrepare
	})
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.waitPhase(3, "t1", "w")
	// PREPARE goes out only once every vote is in, so site 2 in p proves
	// the coordinator counted site 3's YES before the crash.
	c.waitPhase(2, "t1", "p")
	c.crash(3)
	c.net.SetDropFunc(nil)
	c.expect("t1", engine.OutcomeCommitted, 1, 2)

	c.recoverSite(3)
	c.expect("t1", engine.OutcomeCommitted, 3)
	if !c.res[3].didCommit("t1") {
		t.Fatal("recovered site did not apply the redo image")
	}
}

// TestParticipantRecoveryLearnsAbort: as above but the cohort aborted.
func TestParticipantRecoveryLearnsAbort(t *testing.T) {
	c := newCluster(t, engine.ThreePhase, 3)
	c.res[2].refuse("t1")
	c.net.SetDropFunc(func(m transport.Message) bool {
		return m.To == 3 && (m.Kind == engine.KindAbort || m.Kind == engine.KindPrepare)
	})
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.waitPhase(3, "t1", "w")
	c.crash(3)
	c.net.SetDropFunc(nil)
	c.expect("t1", engine.OutcomeAborted, 1, 2)

	c.recoverSite(3)
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
	c := newCluster(t, engine.ThreePhase, 3)
	c.net.SetDropFunc(func(m transport.Message) bool {
		return m.From == 3 && m.Kind == engine.KindYes
	})
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.waitPhase(3, "t1", "w")
	c.crash(3)
	c.net.SetDropFunc(nil)
	c.expect("t1", engine.OutcomeAborted, 1, 2)

	c.recoverSite(3)
	c.expect("t1", engine.OutcomeAborted, 3)
	if c.res[3].didCommit("t1") {
		t.Fatal("recovered site committed an aborted transaction")
	}
}

// TestRecoveredSiteRefusesBackupRole: with the coordinator down and the
// would-be backup freshly recovered (in doubt), termination falls to the
// next operational site, and everyone still terminates consistently.
func TestRecoveredSiteRefusesBackupRole(t *testing.T) {
	c := newCluster(t, engine.ThreePhase, 4)
	// Block PREPARE to 2 and 3; let 4... everyone in w except none.
	c.net.SetDropFunc(func(m transport.Message) bool {
		return m.From == 1 && m.Kind == engine.KindPrepare
	})
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.waitPhase(2, "t1", "w")
	c.waitPhase(3, "t1", "w")
	c.waitPhase(4, "t1", "w")
	// Site 2 crashes and immediately recovers: it is in doubt and must
	// refuse the backup role.
	c.crash(2)
	c.recoverSiteKeepDrop(2)
	c.crash(1)
	c.net.SetDropFunc(nil)
	c.expect("t1", engine.OutcomeAborted, 3, 4)
	c.expect("t1", engine.OutcomeAborted, 2)
}

// recoverSiteKeepDrop restarts a site without clearing the drop function.
func (c *cluster) recoverSiteKeepDrop(id int) {
	c.t.Helper()
	c.recoverSite(id)
}

// TestConcurrentTransactions drives several transactions with mixed
// outcomes through one cluster at once.
func TestConcurrentTransactions(t *testing.T) {
	c := newCluster(t, engine.ThreePhase, 4)
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
		c := newCluster(t, engine.ThreePhase, 4)
		drop := seed
		c.net.SetDropFunc(func(m transport.Message) bool {
			// Deterministically drop a varying slice of coordinator
			// traffic.
			return m.From == 1 && (int(m.Kind[0])+m.To+drop)%3 == 0 &&
				m.Kind != engine.KindVoteReq
		})
		if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
			t.Fatal(err)
		}
		time.Sleep(30 * time.Millisecond)
		c.crash(1)
		c.net.SetDropFunc(nil)

		outcomes := map[engine.Outcome]bool{}
		for _, id := range []int{2, 3, 4} {
			o, err := c.sites[id].WaitOutcome("t1", 5*time.Second)
			if err != nil {
				t.Fatalf("seed %d site %d: %v", seed, id, err)
			}
			outcomes[o] = true
		}
		if outcomes[engine.OutcomeCommitted] && outcomes[engine.OutcomeAborted] {
			t.Fatalf("seed %d: mixed outcomes — atomicity violated", seed)
		}
		for _, s := range c.sites {
			s.Stop()
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
	c := newCluster(t, engine.ThreePhase, 2)
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
	c := newCluster(t, engine.ThreePhase, 5)
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
	c := newCluster(t, engine.ThreePhase, 5)
	c.net.SetDropFunc(func(m transport.Message) bool {
		return m.From == 2 && m.Kind == engine.KindCommit
	})
	// Coordinator 2, cohort {2,4,5}.
	if _, err := c.sites[2].Begin("t1", []int{2, 4, 5}, false); err != nil {
		t.Fatal(err)
	}
	c.waitPhase(4, "t1", "p")
	c.waitPhase(5, "t1", "p")
	c.crash(2)
	c.net.SetDropFunc(nil)
	// Backup must be site 4 (lowest operational cohort member), not 1 or 3.
	c.expect("t1", engine.OutcomeCommitted, 4, 5)
	if got := c.sites[1].Transactions(); len(got) != 0 {
		t.Fatalf("outsider 1 was dragged in: %v", got)
	}
	if got := c.sites[3].Transactions(); len(got) != 0 {
		t.Fatalf("outsider 3 was dragged in: %v", got)
	}
}
