package engine_test

import (
	"fmt"
	"testing"
	"time"

	"nbcommit/internal/engine"
	"nbcommit/internal/transport"
)

func TestPeerThreePCCommit(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 4)
	if _, err := c.sites[2].Begin("t1", c.ids, true); err != nil {
		t.Fatal(err)
	}
	c.expect("t1", engine.OutcomeCommitted, 1, 2, 3, 4)
	for _, id := range c.ids {
		if !c.res[id].didCommit("t1") {
			t.Fatalf("site %d resource did not commit", id)
		}
	}
}

func TestPeerTwoPCCommit(t *testing.T) {
	c := newSimCluster(t, engine.TwoPhase, 3)
	if _, err := c.sites[1].Begin("t1", c.ids, true); err != nil {
		t.Fatal(err)
	}
	c.expect("t1", engine.OutcomeCommitted, 1, 2, 3)
}

func TestPeerUnilateralAbort(t *testing.T) {
	for _, kind := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase} {
		t.Run(kind.String(), func(t *testing.T) {
			c := newSimCluster(t, kind, 3)
			c.res[2].refuse("t1")
			if _, err := c.sites[1].Begin("t1", c.ids, true); err != nil {
				t.Fatal(err)
			}
			c.expect("t1", engine.OutcomeAborted, 1, 2, 3)
		})
	}
}

func TestPeerDuplicateBeginRejected(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 2)
	if _, err := c.sites[1].Begin("t1", c.ids, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.sites[1].Begin("t1", c.ids, true); err == nil {
		t.Fatal("duplicate peer Begin accepted")
	}
	c.expect("t1", engine.OutcomeCommitted, 1, 2)
}

// TestPeerThreePCTerminationAbort: a peer crashes before voting; the
// survivors cannot wait for its vote and the termination protocol aborts at
// every operational site — no blocking.
func TestPeerThreePCTerminationAbort(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 4)
	// Site 4's votes never leave it: equivalent to crashing pre-broadcast.
	c.drop = func(m transport.Message) bool {
		return m.From == 4 && (m.Kind == engine.KindDYes || m.Kind == engine.KindDNo)
	}
	if _, err := c.sites[1].Begin("t1", c.ids, true); err != nil {
		t.Fatal(err)
	}
	c.reach(1, "t1", "w")
	c.reach(2, "t1", "w")
	c.reach(3, "t1", "w")
	c.crash(4)
	c.drop = nil
	c.expect("t1", engine.OutcomeAborted, 1, 2, 3)
}

// TestPeerThreePCTerminationCommit: a peer crashes after the vote round but
// its prepare broadcast is lost; the surviving backup is in p, so the
// termination protocol commits everywhere.
func TestPeerThreePCTerminationCommit(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 3)
	c.drop = func(m transport.Message) bool {
		return m.From == 3 && m.Kind == engine.KindDPrepare
	}
	if _, err := c.sites[1].Begin("t1", c.ids, true); err != nil {
		t.Fatal(err)
	}
	c.reach(1, "t1", "p")
	c.reach(2, "t1", "p")
	// Site 3 receives everyone else's prepares plus its own and commits by
	// itself; its outgoing prepares are lost, leaving 1 and 2 in p.
	c.expect("t1", engine.OutcomeCommitted, 3)
	c.crash(3)
	c.drop = nil
	c.expect("t1", engine.OutcomeCommitted, 1, 2)
}

// TestPeerTwoPCBlocks: a peer crashes before anyone hears its vote; under
// decentralized 2PC every survivor voted YES and is uncertain — blocked.
func TestPeerTwoPCBlocks(t *testing.T) {
	c := newSimCluster(t, engine.TwoPhase, 3)
	c.drop = func(m transport.Message) bool {
		return m.From == 3 && (m.Kind == engine.KindDYes || m.Kind == engine.KindDNo)
	}
	if _, err := c.sites[1].Begin("t1", c.ids, true); err != nil {
		t.Fatal(err)
	}
	c.reach(1, "t1", "w")
	c.reach(2, "t1", "w")
	c.crash(3)
	c.drop = nil
	c.untilBlocked(1, "t1")
	c.untilBlocked(2, "t1")
}

// TestPeerTwoPCUnblocksWhenWitnessDecides: as above, but the crashed peer's
// vote reached one survivor, which completes its round, commits, and is
// discovered by the blocked site's retried status query.
func TestPeerTwoPCUnblocksWhenWitnessDecides(t *testing.T) {
	c := newSimCluster(t, engine.TwoPhase, 3)
	// Site 3's vote reaches site 1 but not site 2.
	c.drop = func(m transport.Message) bool {
		return m.From == 3 && m.To == 2 && m.Kind == engine.KindDYes
	}
	if _, err := c.sites[1].Begin("t1", c.ids, true); err != nil {
		t.Fatal(err)
	}
	// Site 1 has the full round and commits.
	c.expect("t1", engine.OutcomeCommitted, 1)
	c.crash(3)
	c.drop = nil
	// Site 2's cooperative termination finds site 1 committed.
	c.expect("t1", engine.OutcomeCommitted, 2)
}

// TestPeerRecovery: a peer crashes in doubt (voted YES, prepare lost);
// the survivors commit through termination; the recovered peer learns the
// outcome and applies its redo.
func TestPeerRecovery(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 3)
	c.drop = func(m transport.Message) bool {
		return m.To == 3 && m.Kind == engine.KindDPrepare
	}
	if _, err := c.sites[1].Begin("t1", c.ids, true); err != nil {
		t.Fatal(err)
	}
	// Site 3 completes the vote round and enters p itself (it broadcasts its
	// own prepare), but never sees the others' prepares. It dies once the
	// survivors hold every vote too and have entered p.
	c.reach(3, "t1", "p")
	c.reach(1, "t1", "p")
	c.reach(2, "t1", "p")
	c.crash(3)
	c.drop = nil
	c.expect("t1", engine.OutcomeCommitted, 1, 2)

	c.start(3, true)
	c.expect("t1", engine.OutcomeCommitted, 3)
	if !c.res[3].didCommit("t1") {
		t.Fatal("recovered peer did not apply the redo image")
	}
}

// TestPeerRetransmission: with a lossy network that drops 30% of first
// deliveries, retransmission still completes the rounds.
func TestPeerRetransmission(t *testing.T) {
	c := newSimCluster(t, engine.ThreePhase, 3)
	dropped := map[string]bool{}
	c.drop = func(m transport.Message) bool {
		if m.Kind != engine.KindDYes && m.Kind != engine.KindDPrepare {
			return false
		}
		key := fmt.Sprintf("%d-%d-%s", m.From, m.To, m.Kind)
		if !dropped[key] {
			dropped[key] = true
			return true // lose the first copy of every round message
		}
		return false
	}
	if _, err := c.sites[1].Begin("t1", c.ids, true); err != nil {
		t.Fatal(err)
	}
	c.expect("t1", engine.OutcomeCommitted, 1, 2, 3)
}

// TestPeerNoMixedOutcomesUnderCrashes: randomized crash/drop schedules never
// yield mixed outcomes in the decentralized 3PC.
func TestPeerNoMixedOutcomesUnderCrashes(t *testing.T) {
	for seed := 0; seed < 6; seed++ {
		c := newSimCluster(t, engine.ThreePhase, 4)
		drop := seed
		c.drop = func(m transport.Message) bool {
			return m.From == 4 && (int(m.Kind[0])+m.To+drop)%3 == 0 && m.Kind != engine.KindDXact
		}
		if _, err := c.sites[1].Begin("t1", c.ids, true); err != nil {
			t.Fatal(err)
		}
		c.run(25 * time.Millisecond)
		c.crash(4)
		c.drop = nil
		outcomes := map[engine.Outcome]bool{}
		for _, id := range []int{1, 2, 3} {
			outcomes[c.resolved(id, "t1")] = true
		}
		if outcomes[engine.OutcomeCommitted] && outcomes[engine.OutcomeAborted] {
			t.Fatalf("seed %d: mixed outcomes", seed)
		}
	}
}
