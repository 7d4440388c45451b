package dst

import (
	"testing"
	"time"

	"nbcommit/internal/chaos"
	"nbcommit/internal/engine"
	"nbcommit/internal/transport"
)

// TestHostileScheduleDeterminism is the acceptance gate for the whole hostile
// layer: running the same (scenario, protocol, seed) twice must produce the
// identical delivery log, step count and durable state. Every scenario in the
// curated table is checked, both protocols.
func TestHostileScheduleDeterminism(t *testing.T) {
	for _, sc := range HostileScenarios() {
		for _, proto := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase, engine.PaxosCommit} {
			t.Run(sc.Name+"/"+proto.String(), func(t *testing.T) {
				one := RunHostile(sc.Config(proto, 7))
				two := RunHostile(sc.Config(proto, 7))
				if one.Steps != two.Steps {
					t.Fatalf("steps diverged: %d vs %d", one.Steps, two.Steps)
				}
				if one.WALDigest != two.WALDigest {
					t.Fatalf("WAL digest diverged: %s vs %s", one.WALDigest, two.WALDigest)
				}
				if len(one.Trace) != len(two.Trace) {
					t.Fatalf("trace length diverged: %d vs %d", len(one.Trace), len(two.Trace))
				}
				for i := range one.Trace {
					if one.Trace[i] != two.Trace[i] {
						t.Fatalf("trace diverged at %d:\n  %s\n  %s", i, one.Trace[i], two.Trace[i])
					}
				}
			})
		}
	}
}

// TestHostileScenariosSafety: across the curated table, no run may produce a
// harness-level failure (for Paxos that includes any termination-protocol
// message), and only 3PC may ever split a decision — 2PC blocks instead, and
// Paxos decides by majority consensus.
func TestHostileScenariosSafety(t *testing.T) {
	for _, sc := range HostileScenarios() {
		for _, proto := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase, engine.PaxosCommit} {
			t.Run(sc.Name+"/"+proto.String(), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					r := RunHostile(sc.Config(proto, seed))
					if len(r.Violations) > r.SplitTxns {
						t.Fatalf("seed %d harness failure: %v", seed, r.Violations[r.SplitTxns:])
					}
					if proto != engine.ThreePhase && r.SplitTxns > 0 {
						t.Fatalf("seed %d: %s split a decision: %v", seed, proto, r.Violations)
					}
				}
			})
		}
	}
}

// TestCoordCrashBlockingGap measures the paper's central claim on the WAN
// topology: with the coordinator crashing after the cohort prepared, 2PC
// leaves participants in doubt on some seeds while 3PC terminates on every
// one of them.
func TestCoordCrashBlockingGap(t *testing.T) {
	sc, ok := HostileScenarioByName("coord-crash-prepared")
	if !ok {
		t.Fatal("scenario missing from the curated table")
	}
	twoBlocked := 0
	for seed := int64(1); seed <= 6; seed++ {
		two := RunHostile(sc.Config(engine.TwoPhase, seed))
		three := RunHostile(sc.Config(engine.ThreePhase, seed))
		px := RunHostile(sc.Config(engine.PaxosCommit, seed))
		if len(two.BlockedSites) > 0 {
			twoBlocked++
		}
		if len(three.BlockedSites) > 0 {
			t.Fatalf("seed %d: 3PC blocked at sites %v — nonblocking property lost", seed, three.BlockedSites)
		}
		for _, txn := range three.Txns {
			if !txn.Resolved {
				t.Fatalf("seed %d: 3PC left %s unresolved", seed, txn.ID)
			}
		}
		// Paxos survives the same coordinator crash without blocking and —
		// checked by paxosNoTermination inside every run — without a single
		// termination-protocol message: the survivors out-ballot the corpse.
		if len(px.BlockedSites) > 0 {
			t.Fatalf("seed %d: Paxos blocked at sites %v", seed, px.BlockedSites)
		}
		for _, txn := range px.Txns {
			if !txn.Resolved {
				t.Fatalf("seed %d: Paxos left %s unresolved", seed, txn.ID)
			}
		}
	}
	if twoBlocked == 0 {
		t.Fatal("2PC never blocked across seeds 1-6: the scenario lost its bite")
	}
}

// TestHostileTxnMeasurements sanity-checks the per-transaction bookkeeping on
// the no-fault baseline: everything launched is answered and resolves, answer
// precedes resolution, latencies are positive virtual milliseconds. The 1%
// cross-region loss can abort a transaction (a lost vote times the
// coordinator out — safe, and an answer), so outcomes must be decided but
// not necessarily committed.
func TestHostileTxnMeasurements(t *testing.T) {
	sc, ok := HostileScenarioByName("wan-baseline")
	if !ok {
		t.Fatal("scenario missing")
	}
	r := RunHostile(sc.Config(engine.ThreePhase, 3))
	if len(r.Txns) == 0 {
		t.Fatal("no transactions measured")
	}
	committed := 0
	for _, txn := range r.Txns {
		if !txn.Answered || !txn.Resolved {
			t.Fatalf("%s not answered/resolved on the fault-free baseline: %+v", txn.ID, txn)
		}
		if txn.LatencyMs <= 0 {
			t.Fatalf("%s latency = %v, want > 0 (virtual WAN round trips)", txn.ID, txn.LatencyMs)
		}
		if txn.AnswerMs > txn.ResolvedMs {
			t.Fatalf("%s answered at %.2fms after resolving at %.2fms", txn.ID, txn.AnswerMs, txn.ResolvedMs)
		}
		if txn.Outcome == "pending" {
			t.Fatalf("%s outcome pending despite being resolved", txn.ID)
		}
		if txn.Outcome == "committed" {
			committed++
		}
	}
	if committed == 0 {
		t.Fatal("nothing committed on the fault-free baseline")
	}
}

// TestSkewTimeoutEvent verifies the schedule's timeout skew actually lands on
// the engine: a run with a drastically shortened coordinator timeout aborts
// transactions the unskewed run commits.
func TestSkewTimeoutEvent(t *testing.T) {
	topo := chaos.DefaultWAN(3, 2)
	topo.Cross.Loss = 0 // no loss: the unskewed run must commit deterministically
	base := HostileConfig{
		Protocol: engine.ThreePhase,
		Topology: topo,
		Launches: []TxnLaunch{{At: 200 * time.Millisecond, Coord: 1}},
		Seed:     5,
	}
	r := RunHostile(base)
	if len(r.Txns) != 1 || r.Txns[0].Outcome != "committed" {
		t.Fatalf("unskewed run: %+v", r.Txns)
	}

	skewed := base
	// 0.01x of the 400ms default: far below one cross-region round trip.
	skewed.Events = []chaos.Event{chaos.SkewTimeout(0, 1, 0.01)}
	r = RunHostile(skewed)
	if len(r.Txns) != 1 || r.Txns[0].Outcome != "aborted" {
		t.Fatalf("skewed run should abort on timeout: %+v", r.Txns)
	}
}

// TestDecentralizedEarlyVote: over fixed 1 ms links the initiator's own
// D-YES reaches a peer at the same instant as its D-XACT, and the scheduler
// may deliver the vote first. The vote carries the transaction, so the
// peer counts it instead of waiting a timeout for the resend: every site
// decides after two link delays (2PC) or three (3PC), having sent Skeen's
// count plus the n-1 D-XACTs.
func TestDecentralizedEarlyVote(t *testing.T) {
	const n = 4
	link := transport.LinkModel{Delay: transport.FixedDelay(time.Millisecond)}
	for _, tc := range []struct {
		proto        engine.ProtocolKind
		delays, msgs int
	}{
		{engine.TwoPhase, 2, (n - 1) * (n + 1)},
		{engine.ThreePhase, 3, (n - 1) * (2*n + 1)},
	} {
		for seed := int64(1); seed <= 20; seed++ {
			r := RunHostile(HostileConfig{
				Protocol: tc.proto,
				Topology: chaos.WAN("lan", 1, n, link, link),
				Launches: []TxnLaunch{{Coord: 1, Peer: true}},
				Seed:     seed,
				Timeout:  50 * time.Millisecond,
			})
			tr := r.Txns[0]
			if !tr.Resolved || tr.Outcome != "committed" || tr.ResolvedMs != float64(tc.delays) || r.Messages != tc.msgs {
				t.Fatalf("%s seed %d: resolved=%v %s at %.1fms with %d messages, want committed at %dms with %d",
					tc.proto, seed, tr.Resolved, tr.Outcome, tr.ResolvedMs, r.Messages, tc.delays, tc.msgs)
			}
		}
	}
}

// TestHostileRunDeliversInFlightMessages: the initiator of a decentralized
// transaction crashes after sending its D-XACTs but before they land. No
// live site knows the transaction yet, so every live site looks settled;
// the run must still deliver the messages in flight, and the survivors
// then terminate the transaction.
func TestHostileRunDeliversInFlightMessages(t *testing.T) {
	link := transport.LinkModel{Delay: transport.FixedDelay(time.Millisecond)}
	r := RunHostile(HostileConfig{
		Protocol: engine.ThreePhase,
		Topology: chaos.WAN("lan", 1, 3, link, link),
		Events:   []chaos.Event{chaos.Crash(500*time.Microsecond, 1)},
		Launches: []TxnLaunch{{Coord: 1, Peer: true}},
		Seed:     1,
		Timeout:  5 * time.Millisecond,
	})
	if tr := r.Txns[0]; !tr.Resolved || tr.Outcome == "pending" || r.Blocked || r.SplitTxns != 0 {
		t.Fatalf("survivors did not terminate: %+v blocked=%v splits=%d", tr, r.Blocked, r.SplitTxns)
	}
}
