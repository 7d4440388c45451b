package engine_test

import (
	"testing"

	"nbcommit/internal/engine"
	"nbcommit/internal/transport"
)

// TestBackupCrashDuringTermination kills the coordinator after the cohort
// reaches the buffer state, then kills the first backup coordinator right
// after it decides but before its outcome broadcast gets out. The remaining
// operational sites must elect the next backup and still terminate — the
// nonblocking guarantee holds across cascaded coordinator failures as long
// as one site stays up.
func TestBackupCrashDuringTermination(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 4)
	// Swallow every COMMIT from site 1 (the coordinator) and site 2 (the
	// backup-to-be): decisions are made but never announced.
	c.drop = func(m transport.Message) bool {
		return m.Kind == engine.KindCommit && (m.From == 1 || m.From == 2)
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.reach(2, "t1", "p")
	c.reach(3, "t1", "p")
	c.reach(4, "t1", "p")
	c.crash(1)

	// Site 2 becomes backup, runs the backup protocol, and decides commit
	// from its buffer state — but its broadcast is swallowed.
	c.expect("t1", engine.OutcomeCommitted, 2)
	c.crash(2)

	// Sites 3 and 4 must re-terminate under the next backup (site 3).
	c.expect("t1", engine.OutcomeCommitted, 3, 4)

	// Staggered recovery converges everyone on the same outcome.
	c.drop = nil
	c.start(1, true)
	c.start(2, true)
	c.expect("t1", engine.OutcomeCommitted, 1, 2, 3, 4)
}

// TestMinorityPartitionStaysSafe partitions the surviving cohort after the
// coordinator crashes: the deterministic election names site 2 the backup on
// BOTH sides of a {2} / {3,4} split (the failure detector still reports 2
// operational — it crashed nobody). The isolated backup cannot collect
// phase-1 acknowledgements, so no side may decide while the partition holds;
// after it heals the backup's retransmissions finish the termination
// protocol with a single consistent outcome.
func TestMinorityPartitionStaysSafe(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 4)
	part := func(site int) bool { return site == 2 }
	cross := func(m transport.Message) bool {
		return m.From != 1 && m.To != 1 && part(m.From) != part(m.To)
	}
	c.drop = func(m transport.Message) bool {
		return m.Kind == engine.KindCommit && m.From == 1
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.reach(2, "t1", "p")
	c.reach(3, "t1", "p")
	c.reach(4, "t1", "p")

	// Cut {2} off from {3,4} before the coordinator dies, so the whole
	// termination protocol runs under the partition.
	c.drop = func(m transport.Message) bool {
		return (m.Kind == engine.KindCommit && m.From == 1) || cross(m)
	}
	c.crash(1)

	// Several timeout cycles of termination attempts on both sides: nobody
	// may decide without acknowledgements from all operational sites.
	c.run(6 * testTimeout)
	for _, id := range []int{2, 3, 4} {
		if o, err := c.sites[id].Outcome("t1"); err == nil && o != engine.OutcomePending {
			t.Fatalf("site %d decided %s during the partition", id, o)
		}
	}

	// Heal: the backup's retransmitted phase-1 messages now reach everyone.
	c.drop = nil
	c.expect("t1", engine.OutcomeCommitted, 2, 3, 4)

	c.start(1, true)
	c.expect("t1", engine.OutcomeCommitted, 1, 2, 3, 4)
}
