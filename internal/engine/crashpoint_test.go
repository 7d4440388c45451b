package engine_test

import (
	"testing"

	"nbcommit/internal/engine"
	"nbcommit/internal/wal"
)

// crashpointLog wraps a site's log and trips the site immediately after a
// chosen record type is appended — a site that crashes between forcing a log
// record and sending the messages of the same transition (the paper: "a site
// may only partially complete a transition before failing").
type crashpointLog struct {
	wal.Log
	trigger wal.RecordType
	fired   bool
	onHit   func()
}

func (l *crashpointLog) Append(rec wal.Record) (uint64, error) {
	lsn, err := l.Log.Append(rec)
	if err == nil && !l.fired && rec.Type == l.trigger {
		l.fired = true
		l.onHit()
	}
	return lsn, err
}

// crashAt restarts site id over a log that kills it right after its first
// append of a record of type rt.
func (c *simCluster) crashAt(id int, rt wal.RecordType) {
	c.sites[id].Stop()
	c.logs[id] = &crashpointLog{Log: c.logs[id], trigger: rt, onHit: func() { c.trip(id) }}
	c.start(id, false)
}

// TestCrashAfterVoteRecordBeforeVoteSend: participant 3 forces its YES vote
// to the log and dies before the vote reaches the coordinator. The
// coordinator times out and aborts; on recovery, site 3 finds the in-doubt
// vote in its log, asks the cohort, and aborts consistently.
func TestCrashAfterVoteRecordBeforeVoteSend(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 3)
	c.crashAt(3, wal.RecVoteYes)

	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	// The coordinator never hears site 3's vote and aborts.
	c.expect("t1", engine.OutcomeAborted, 1, 2)

	// Recover site 3: its log says voted-yes with no outcome — in doubt.
	c.start(3, true)
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
	c := newSimCluster(t, engine.TwoPhase, 3)
	c.crashAt(1, wal.RecCommitted)

	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	// The commit record hit stable storage, no message escaped: both
	// participants are blocked.
	c.untilBlocked(2, "t1")
	c.untilBlocked(3, "t1")

	// Recovery re-broadcasts the logged decision: COMMIT.
	c.start(1, true)
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
	c := newSimCluster(t, engine.ThreePhase, 3)
	c.crashAt(1, wal.RecPrepared)

	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	// Participants in w with a dead coordinator: termination aborts.
	c.expect("t1", engine.OutcomeAborted, 2, 3)

	// The coordinator recovers in doubt from its prepared record and must
	// learn the abort from the cohort.
	c.start(1, true)
	c.expect("t1", engine.OutcomeAborted, 1)
	if c.res[1].didCommit("t1") {
		t.Fatal("recovered coordinator committed an aborted transaction")
	}
}
