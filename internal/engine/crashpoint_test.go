package engine_test

import (
	"testing"

	"nbcommit/internal/engine"
	"nbcommit/internal/wal"
)

// crashpointLog wraps a MemoryLog and fires a callback immediately after a
// chosen record type is appended — simulating a site that crashes between
// forcing a log record and sending the messages of the same transition (the
// paper: "a site may only partially complete a transition before failing").
type crashpointLog struct {
	*wal.MemoryLog
	trigger wal.RecordType
	fired   bool
	onHit   func()
}

func (l *crashpointLog) Append(rec wal.Record) (uint64, error) {
	lsn, err := l.MemoryLog.Append(rec)
	if err == nil && !l.fired && rec.Type == l.trigger {
		l.fired = true
		l.onHit()
	}
	return lsn, err
}

// TestCrashAfterVoteRecordBeforeVoteSend: participant 3 forces its YES vote
// to the log and dies before the vote reaches the coordinator. The
// coordinator times out and aborts; on recovery, site 3 finds the in-doubt
// vote in its log, asks the cohort, and aborts consistently.
func TestCrashAfterVoteRecordBeforeVoteSend(t *testing.T) {
	c := newCluster(t, engine.ThreePhase, 3)

	// Rebuild site 3 with the crash-point log.
	c.sites[3].Stop()
	cpl := &crashpointLog{MemoryLog: c.logs[3], trigger: wal.RecVoteYes}
	cpl.onHit = func() { c.net.Crash(3) } // cut the network before the send
	s, err := engine.New(engine.Config{
		ID:       3,
		Endpoint: c.net.Endpoint(3),
		Log:      cpl,
		Resource: c.res[3],
		Detector: c.net,
		Protocol: engine.ThreePhase,
		Timeout:  testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.sites[3] = s
	s.Start()

	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	// The coordinator never hears site 3's vote and aborts.
	c.expect("t1", engine.OutcomeAborted, 1, 2)

	// Recover site 3: its log says voted-yes with no outcome — in doubt.
	c.sites[3].Stop()
	c.recoverSite(3)
	c.expect("t1", engine.OutcomeAborted, 3)
	if c.res[3].didCommit("t1") {
		t.Fatal("recovered site committed an aborted transaction")
	}
}

// TestCrashAfterCommitRecordBeforeBroadcast (2PC): the coordinator forces
// its COMMIT record and dies before any decision message leaves. The
// participants block; when the coordinator recovers it re-broadcasts the
// logged decision and everyone commits.
func TestCrashAfterCommitRecordBeforeBroadcast(t *testing.T) {
	c := newCluster(t, engine.TwoPhase, 3)

	c.sites[1].Stop()
	cpl := &crashpointLog{MemoryLog: c.logs[1], trigger: wal.RecCommitted}
	cpl.onHit = func() { c.net.Crash(1) }
	s, err := engine.New(engine.Config{
		ID:       1,
		Endpoint: c.net.Endpoint(1),
		Log:      cpl,
		Resource: c.res[1],
		Detector: c.net,
		Protocol: engine.TwoPhase,
		Timeout:  testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.sites[1] = s
	s.Start()

	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	// The commit record hit stable storage, no message escaped: both
	// participants are blocked.
	c.waitBlocked(2, "t1")
	c.waitBlocked(3, "t1")

	// Recovery re-broadcasts the logged decision: COMMIT.
	c.sites[1].Stop()
	c.recoverSite(1)
	c.expect("t1", engine.OutcomeCommitted, 1, 2, 3)
	for _, id := range []int{2, 3} {
		if !c.res[id].didCommit("t1") {
			t.Fatalf("site %d did not apply the recovered commit", id)
		}
	}
}

// TestCrashAfterPreparedRecord (3PC coordinator): the coordinator logs the
// prepared record and dies before any PREPARE leaves; participants are in w
// and terminate with ABORT. The recovered coordinator is in doubt (its p is
// not a decision) and must adopt the cohort's abort.
func TestCrashAfterPreparedRecord(t *testing.T) {
	c := newCluster(t, engine.ThreePhase, 3)

	c.sites[1].Stop()
	cpl := &crashpointLog{MemoryLog: c.logs[1], trigger: wal.RecPrepared}
	cpl.onHit = func() { c.net.Crash(1) }
	s, err := engine.New(engine.Config{
		ID:       1,
		Endpoint: c.net.Endpoint(1),
		Log:      cpl,
		Resource: c.res[1],
		Detector: c.net,
		Protocol: engine.ThreePhase,
		Timeout:  testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.sites[1] = s
	s.Start()

	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	// Participants in w with a dead coordinator: termination aborts.
	c.expect("t1", engine.OutcomeAborted, 2, 3)

	// The coordinator recovers in doubt from its prepared record and must
	// learn the abort from the cohort.
	c.sites[1].Stop()
	c.recoverSite(1)
	c.expect("t1", engine.OutcomeAborted, 1)
	if c.res[1].didCommit("t1") {
		t.Fatal("recovered coordinator committed an aborted transaction")
	}
}
