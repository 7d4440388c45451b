package dst

import (
	"strings"
	"testing"

	"nbcommit/internal/clock"
	"nbcommit/internal/engine"
	"nbcommit/internal/wal"
)

// Presumed-abort and read-only-participant coverage: the forced-record diet
// must not change any decision. These tests drive the same enumeration
// machinery as dst_test.go but with the windows the diet opened — lazy
// (staged-but-unflushed) WAL appends and cohort members that drop out of
// phase 2 after a read-only vote.

const roTx = "t1"

// roConfig builds a 3-site cluster with site 3 scripted to prepare with an
// empty write set, and so to vote READ-ONLY, for every transaction.
func roConfig(kind engine.ProtocolKind) Config {
	cfg := Config{Protocol: kind}
	cfg.mkResource = func(site int, clk clock.Clock) engine.Resource {
		r := newResource()
		if site == 3 {
			r.readonly[roTx] = true
		}
		return r
	}
	return cfg.withDefaults()
}

func launchRO(c *cluster) error { return c.begin(1, roTx, false) }

// TestReadOnlyParticipantSilent: in a fault-free run the read-only member
// answers phase 1 with exactly one READ-ONLY vote and is then completely
// done — it forces nothing, sends nothing else, is skipped by the whole of
// phase 2 (PREPARE, decision broadcast, settlement), and retains no
// transaction state. The writers still commit.
func TestReadOnlyParticipantSilent(t *testing.T) {
	for _, kind := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase} {
		t.Run(kind.String(), func(t *testing.T) {
			c := newCluster(roConfig(kind), nil)
			if err := launchRO(c); err != nil {
				t.Fatalf("begin: %v", err)
			}
			c.run(nil)
			for _, id := range []int{1, 2} {
				o, err := c.sites[id].Outcome(roTx)
				if err != nil || o != engine.OutcomeCommitted {
					t.Fatalf("writer site %d outcome = %v, %v", id, o, err)
				}
			}
			if recs, err := c.logs[3].inner.Records(); err != nil || len(recs) != 0 {
				t.Errorf("read-only site logged %d records, want 0", len(recs))
			}
			if _, err := c.sites[3].Outcome(roTx); err == nil {
				t.Error("read-only site still tracks the transaction")
			}
			votesRO := 0
			for _, m := range c.deliveries {
				if m.TxID != roTx {
					continue
				}
				if m.From == 3 {
					if m.Kind == engine.KindReadOnly {
						votesRO++
					} else {
						t.Errorf("read-only site sent more than its vote: %s", m)
					}
				}
				if m.To == 3 && m.Kind != engine.KindVoteReq {
					t.Errorf("read-only site received phase-2 traffic: %s", m)
				}
			}
			if votesRO != 1 {
				t.Errorf("READ-ONLY votes on the wire = %d, want 1", votesRO)
			}
		})
	}
}

// TestReadOnlyCrashPointsStayConsistent enumerates every single-crash
// schedule of the read-only workload for 2PC and 3PC. The read-only site
// forces nothing, so no afterAppend point may land on it; and no schedule —
// including coordinator death after the read-only member already dropped
// out — may split the decision or strand a site after recovery.
func TestReadOnlyCrashPointsStayConsistent(t *testing.T) {
	for _, kind := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase} {
		cfg := roConfig(kind)
		pts := enumerateCrashPointsFrom(cfg, launchRO)
		if len(pts) == 0 {
			t.Fatalf("%s: no crash points enumerated", kind)
		}
		blocked := 0
		for _, cp := range pts {
			if cp.Site == 3 && cp.kind == afterAppend {
				t.Fatalf("%s: read-only site has WAL appends to crash on: %s", kind, cp)
			}
			r, _ := runCrashPointFrom(cfg, cp, launchRO)
			scenario := kind.String() + " " + cp.String()
			if r.Blocked {
				blocked++
				if kind == engine.ThreePhase {
					t.Errorf("%s: 3PC blocked", scenario)
				}
			}
			for _, v := range r.Violations {
				t.Errorf("%s: %s", scenario, v)
			}
		}
		t.Logf("%s: %d read-only crash points, %d blocked", kind, len(pts), blocked)
	}
}

// TestTwoPCLazyBeginWindowEnumerated: the 2PC coordinator's begin record is
// a lazy append under presumed abort, and the explorer must reach the
// staged-but-unflushed window. Crashing there loses the record: after
// recovery the coordinator's log is empty (its transaction never existed,
// durably) and the run closes with no violations.
func TestTwoPCLazyBeginWindowEnumerated(t *testing.T) {
	cfg := Config{Protocol: engine.TwoPhase}.withDefaults()
	launch := func(c *cluster) error { return c.begin(1, "t1", false) }
	found := 0
	for _, cp := range enumerateCrashPointsFrom(cfg, launch) {
		if cp.Site != 1 || cp.kind != afterAppend || cp.Rec != wal.RecBegin {
			continue
		}
		found++
		r, c := runCrashPointFrom(cfg, cp, launch)
		for _, v := range r.Violations {
			t.Errorf("%s: %s", cp, v)
		}
		if recs, _ := c.logs[1].inner.Records(); len(recs) != 0 {
			t.Errorf("%s: staged begin record leaked into the durable log: %v", cp, recs)
		}
	}
	if found == 0 {
		t.Fatal("no RecBegin crash point at the 2PC coordinator: the lazy begin window is not being enumerated")
	}
}

// TestTwoPCSettlementWindowReconverges: end records are lazy everywhere.
// A participant that crashes with its end record staged recovers from a log
// whose last transaction record is the forced commit, so it re-runs
// settlement against a coordinator that may have forgotten the transaction
// entirely — and the run must still close resolved and consistent.
func TestTwoPCSettlementWindowReconverges(t *testing.T) {
	cfg := Config{Protocol: engine.TwoPhase}.withDefaults()
	launch := func(c *cluster) error { return c.begin(1, "t1", false) }
	found := 0
	for _, cp := range enumerateCrashPointsFrom(cfg, launch) {
		if cp.kind != afterAppend || cp.Rec != wal.RecEnd {
			continue
		}
		found++
		r, c := runCrashPointFrom(cfg, cp, launch)
		for _, v := range r.Violations {
			t.Errorf("%s: %s", cp, v)
		}
		o, err := c.sites[cp.Site].Outcome("t1")
		if err == nil && o == engine.OutcomePending {
			t.Errorf("%s: recovered site still pending", cp)
		}
	}
	if found == 0 {
		t.Fatal("no RecEnd crash points enumerated: the lazy settlement window is not being modelled")
	}
}

// TestNoTraceAnswersNotAborts replays 2PC seed 285: VOTE-REQ[1->2] is lost
// and the coordinator crashes, so site 2 has no trace of t1 when site 3
// starts cooperative termination. No trace is also what an ex-read-only
// voter of a committed transaction holds, so site 2 must answer STATUS-RES
// 'n' and build no state, not seal-abort; site 3 is left blocked, and no
// decision splits.
func TestNoTraceAnswersNotAborts(t *testing.T) {
	r := RunRandom(Config{Protocol: engine.TwoPhase}, 285)
	for _, v := range r.Violations {
		t.Error(v)
	}
	answered := false
	for _, line := range r.Trace {
		switch {
		case strings.HasPrefix(line, "deliver ABORT[2->3 tx=t1]"):
			t.Errorf("site 2 sent ABORT for t1 although it never voted: %q", line)
		case strings.HasPrefix(line, "deliver STATUS-RES[2->3 tx=t1]"):
			answered = true
		}
	}
	if !answered {
		t.Errorf("site 2 never answered site 3's STATUS-REQ; trace:\n  %s", strings.Join(r.Trace, "\n  "))
	}
	if !r.Blocked {
		t.Error("site 3 was not blocked: a member with no trace ended 2PC's uncertainty")
	}
}
