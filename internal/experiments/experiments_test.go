package experiments

import (
	"strings"
	"testing"
	"time"

	"nbcommit/internal/chaos"
	"nbcommit/internal/engine"
)

// TestFigureReports smoke-tests every figure generator: nonempty reports
// with the paper's headline phrases.
func TestFigureReports(t *testing.T) {
	checks := []struct {
		report string
		want   []string
	}{
		{Fig1CentralSite2PC(3), []string{"F1", "2 phases", "unilateral abort: true"}},
		{Fig3ConcurrencySets([]int{2, 3}), []string{"CS(w)={a,c,q,w}", "CS(c)={c,w}"}},
		{Fig4TheoremOn2PC(3), []string{"nonblocking=false", "condition-1", "condition-2"}},
		{Fig5Synthesis(3), []string{"equals canonical 3PC: true", "equals slide-35 3PC: true"}},
		{Fig6ThreePCNonblocking([]int{2}), []string{"nonblocking=true", "s1:{c,p}"}},
		{Fig7TerminationRule(), []string{"backup in p -> commit", "backup in w -> abort"}},
		{Fig8Resilience(3), []string{"[1 2 3] of 3", "[] of 3"}},
	}
	for i, c := range checks {
		for _, w := range c.want {
			if !strings.Contains(c.report, w) {
				t.Errorf("report %d missing %q:\n%s", i, w, c.report)
			}
		}
	}
	stats, rep := Fig2ReachableGraph2PC()
	if stats.States != 9 || !strings.Contains(rep, "global states 9") {
		t.Errorf("F2 = %+v\n%s", stats, rep)
	}
}

// TestTableReports runs the runtime experiments at reduced scale: the
// throughput run commits under every protocol, and recovery never leaves
// mixed outcomes.
func TestTableReports(t *testing.T) {
	rows5, _ := Tab5Throughput(3, 30, 7)
	if len(rows5) != 4 {
		t.Fatalf("T5 rows = %d", len(rows5))
	}
	for _, r := range rows5 {
		if r.Committed == 0 {
			t.Errorf("T5 %s committed nothing", r.Protocol)
		}
	}

	if failures, rep := Tab6Recovery(4); failures != 0 {
		t.Errorf("T6 failures:\n%s", rep)
	}
}

// TestBlockingUnderCoordinatorCrash is T1 on the engine: a coordinator
// crash anywhere in the protocol window blocks 2PC in some runs and 3PC in
// none, and no run splits.
func TestBlockingUnderCoordinatorCrash(t *testing.T) {
	rows, rep := Tab1BlockingProbability([]int{3, 5}, 200, 7)
	if len(rows) != 2 || !strings.Contains(rep, "T1") {
		t.Fatalf("T1 = %+v\n%s", rows, rep)
	}
	for _, r := range rows {
		if r.Inconsistent != 0 || r.ThreePC != 0 || r.TwoPCBlocked == 0 {
			t.Errorf("T1 row %+v", r)
		}
	}
}

// coordinatorCrashAt is T7's crash point: with fixed 1 ms links the votes
// are in flight to the coordinator, so both participants sit in w and no
// site has decided.
const coordinatorCrashAt = 1500 * time.Microsecond

// TestTwoPCBlocksUnderCoordinatorCrash is T1's point case on the engine: a
// coordinator that crashes while the votes are in flight and never recovers
// leaves 2PC's participants blocked, undecided and consistent.
func TestTwoPCBlocksUnderCoordinatorCrash(t *testing.T) {
	r := runTrial(central2PC, 3, fixedLink, 5*time.Millisecond, 5, chaos.Crash(coordinatorCrashAt, 1))
	if !r.Blocked {
		t.Fatalf("expected blocking, got %+v", r.Txns)
	}
	if r.Txns[0].Resolved {
		t.Fatalf("a survivor decided without the coordinator: %+v", r.Txns[0])
	}
	if r.SplitTxns != 0 || len(r.Violations) != 0 {
		t.Fatalf("blocking must still be consistent: %v", r.Violations)
	}
}

// TestRepairUnblocks2PC: the same crash followed by the coordinator's
// recovery releases the survivors, only after the recovery, with the abort
// the recovered coordinator must choose for a transaction it never decided.
func TestRepairUnblocks2PC(t *testing.T) {
	const recoverAt = 60 * time.Millisecond
	r := runTrial(central2PC, 3, fixedLink, 5*time.Millisecond, 5,
		chaos.Crash(coordinatorCrashAt, 1), chaos.Recover(recoverAt, 1))
	if r.SplitTxns != 0 || len(r.Violations) != 0 {
		t.Fatalf("inconsistent: %v", r.Violations)
	}
	tx := r.Txns[0]
	if !r.Blocked || !tx.Resolved {
		t.Fatalf("want blocked until recovery, then resolved: blocked=%v %+v", r.Blocked, tx)
	}
	if tx.Outcome != engine.OutcomeAborted.String() {
		t.Fatalf("recovered coordinator must abort an undecided txn: %+v", tx)
	}
	if tx.ResolvedMs < float64(recoverAt/time.Millisecond) {
		t.Errorf("resolved at %.2f ms, before the recovery at %v", tx.ResolvedMs, recoverAt)
	}
}

// TestAvailabilityUnderRandomCrashes is T2 on the engine: 3PC terminates
// every run in both paradigms, and no protocol splits.
func TestAvailabilityUnderRandomCrashes(t *testing.T) {
	rows, _ := Tab2Availability(5, []int{1, 2}, 150, 7)
	if len(rows) != 8 {
		t.Fatalf("T2 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Inconsistent != 0 {
			t.Errorf("T2 %s k=%d: %d split transactions", r.Protocol, r.K, r.Inconsistent)
		}
		if strings.HasSuffix(r.Protocol, "3PC") && r.Terminated < 1 {
			t.Errorf("T2 %s k=%d terminated %.3f", r.Protocol, r.K, r.Terminated)
		}
	}
}

// TestMessageCost is T3 on the engine: every protocol sends exactly
// Skeen's count plus n-1, and Skeen's counts are the paper's.
func TestMessageCost(t *testing.T) {
	rows, _ := Tab3MessageCost([]int{2, 4, 8, 16})
	for _, r := range rows {
		n := r.N
		model := map[string]int{
			"central-2PC": 3 * (n - 1), "central-3PC": 5 * (n - 1),
			"decentralized-2PC": n * (n - 1), "decentralized-3PC": 2 * n * (n - 1),
		}
		for name, got := range map[string]int{
			"central-2PC": r.C2PC, "central-3PC": r.C3PC,
			"decentralized-2PC": r.D2PC, "decentralized-3PC": r.D3PC,
		} {
			if SkeenMessages(name, n) != model[name] {
				t.Errorf("n=%d %s: model count %d, want %d", n, name, SkeenMessages(name, n), model[name])
			}
			if got != model[name]+n-1 {
				t.Errorf("n=%d %s: engine sent %d messages, want %d+%d", n, name, got, model[name], n-1)
			}
		}
	}
}

// TestLatency is T4 on the engine: every site has decided after exactly
// 3, 5, 2 and 3 link delays (central 2PC, central 3PC, decentralized 2PC,
// decentralized 3PC), at every cohort size.
func TestLatency(t *testing.T) {
	rows, _ := Tab4Latency([]int{2, 4, 8, 16})
	for _, r := range rows {
		if r.C2PC != 3 || r.C3PC != 5 || r.D2PC != 2 || r.D3PC != 3 {
			t.Errorf("T4 row %+v, want 3/5/2/3 link delays", r)
		}
	}
}

// TestResolutionVsMTTR is T7 on the engine: 2PC resolves a fixed time
// after the coordinator recovers, 3PC at the same time whatever the MTTR,
// and before even the shortest 2PC outage ends.
func TestResolutionVsMTTR(t *testing.T) {
	rows, _ := Tab7BlockedTimeVsMTTR([]time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond}, 7)
	first := rows[0]
	for _, r := range rows {
		if r.TwoPCDone-r.MTTR != first.TwoPCDone-first.MTTR || r.TwoPCDone <= r.MTTR {
			t.Errorf("T7: 2PC should resolve a fixed time after recovery: %+v", rows)
		}
		if r.ThreePDone != first.ThreePDone || r.ThreePDone == 0 || r.ThreePDone >= first.MTTR {
			t.Errorf("T7: 3PC should resolve before recovery, at the same time for every MTTR: %+v", rows)
		}
	}
}

// TestAblationReports asserts both ablations break/hold exactly as the
// paper predicts.
func TestAblationReports(t *testing.T) {
	withV, withoutV, rep := Abl1BackupPhase1()
	if withV != 0 || withoutV == 0 {
		t.Errorf("A1 = %d/%d\n%s", withV, withoutV, rep)
	}
	two, three, _ := Abl2NoBufferState(200, 7)
	if three != 0 || two == 0 {
		t.Errorf("A2 = %.3f/%.3f", two, three)
	}
	plain, quorum, blocked, _ := Abl3PartitionQuorum(150)
	if quorum != 0 || plain == 0 || blocked == 0 {
		t.Errorf("A3 = plain %d quorum %d blocked %d", plain, quorum, blocked)
	}
}

// TestContention: both deadlock policies make progress under a skewed
// workload; wait-die trades aborts for latency.
func TestContention(t *testing.T) {
	rows, rep := Tab8Contention(3, 4, 20, 7)
	if len(rows) != 2 || !strings.Contains(rep, "T8") {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if r.Committed == 0 {
			t.Errorf("%s committed nothing: %+v", r.Policy, r)
		}
		if r.Committed+r.Aborted != 4*20 {
			t.Errorf("%s lost transactions: %+v", r.Policy, r)
		}
	}
}
