// Package nbcommit's benchmark harness: one testing.B benchmark per figure
// and table of the reproduction (see DESIGN.md for the index and
// EXPERIMENTS.md for paper-vs-measured). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark both measures the cost of regenerating its artifact and
// asserts the paper's qualitative claim, so a regression in either shows up
// here. Custom metrics report the headline quantity of each experiment.
package nbcommit

import (
	"testing"
	"time"

	"nbcommit/internal/experiments"
)

func BenchmarkFig1CentralSite2PC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := experiments.Fig1CentralSite2PC(3); s == "" {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig2ReachableGraph2PC(b *testing.B) {
	var states int
	for i := 0; i < b.N; i++ {
		stats, _ := experiments.Fig2ReachableGraph2PC()
		if stats.Inconsistent != 0 || stats.Deadlocked != 0 {
			b.Fatalf("graph unsound: %+v", stats)
		}
		states = stats.States
	}
	b.ReportMetric(float64(states), "global-states")
}

func BenchmarkFig3ConcurrencySets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := experiments.Fig3ConcurrencySets([]int{2, 3, 4}); s == "" {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig4TheoremOn2PC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := experiments.Fig4TheoremOn2PC(3); s == "" {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig5Synthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := experiments.Fig5Synthesis(3); s == "" {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig6ThreePCNonblocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := experiments.Fig6ThreePCNonblocking([]int{2, 3}); s == "" {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig7Termination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := experiments.Fig7TerminationRule(); s == "" {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig8Resilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := experiments.Fig8Resilience(3); s == "" {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkTab1BlockingProbability(b *testing.B) {
	var lastTwo, lastThree float64
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Tab1BlockingProbability([]int{3, 5}, 400, 1981)
		for _, r := range rows {
			if r.Inconsistent != 0 {
				b.Fatalf("n=%d: inconsistency", r.N)
			}
			if r.ThreePC != 0 {
				b.Fatalf("n=%d: 3PC blocked", r.N)
			}
			if r.TwoPCBlocked == 0 {
				b.Fatalf("n=%d: 2PC never blocked", r.N)
			}
			lastTwo, lastThree = r.TwoPCBlocked, r.ThreePC
		}
	}
	b.ReportMetric(100*lastTwo, "2pc-blocked-%")
	b.ReportMetric(100*lastThree, "3pc-blocked-%")
}

func BenchmarkTab2Availability(b *testing.B) {
	var worst3PC float64 = 1
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Tab2Availability(5, []int{1, 2}, 300, 1981)
		for _, r := range rows {
			if r.Inconsistent != 0 {
				b.Fatalf("%s k=%d: inconsistency", r.Protocol, r.K)
			}
			if r.Protocol == "central-3PC" || r.Protocol == "decentralized-3PC" {
				if r.Terminated < 1 {
					b.Fatalf("%s k=%d terminated %.3f", r.Protocol, r.K, r.Terminated)
				}
				if r.Terminated < worst3PC {
					worst3PC = r.Terminated
				}
			}
		}
	}
	b.ReportMetric(100*worst3PC, "3pc-availability-%")
}

func BenchmarkTab3MessageCost(b *testing.B) {
	var rows []experiments.Tab3Row
	for i := 0; i < b.N; i++ {
		rows, _ = experiments.Tab3MessageCost([]int{2, 4, 8, 16})
		for _, r := range rows {
			n := r.N
			if experiments.SkeenMessages("central-2PC", n) != 3*(n-1) ||
				experiments.SkeenMessages("central-3PC", n) != 5*(n-1) ||
				experiments.SkeenMessages("decentralized-2PC", n) != n*(n-1) ||
				experiments.SkeenMessages("decentralized-3PC", n) != 2*n*(n-1) {
				b.Fatalf("model counts off at n=%d", n)
			}
			if r.C2PC != 3*(n-1)+n-1 || r.C3PC != 5*(n-1)+n-1 ||
				r.D2PC != n*(n-1)+n-1 || r.D3PC != 2*n*(n-1)+n-1 {
				b.Fatalf("engine counts are not Skeen's plus n-1 at n=%d: %+v", n, r)
			}
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.C3PC), "c3pc-msgs@n16")
	b.ReportMetric(float64(last.D3PC), "d3pc-msgs@n16")
}

func BenchmarkTab4Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Tab4Latency([]int{3, 5})
		for _, r := range rows {
			if r.C2PC != 3 || r.C3PC != 5 || r.D2PC != 2 || r.D3PC != 3 {
				b.Fatalf("link delays until every site decided, want 3/5/2/3: %+v", r)
			}
		}
	}
}

func BenchmarkTab5Throughput(b *testing.B) {
	var per2, per3 float64
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Tab5Throughput(4, 100, 1981)
		for _, r := range rows {
			if r.Committed == 0 {
				b.Fatalf("%s committed nothing", r.Protocol)
			}
			if r.Protocol == "central-site 2PC" {
				per2 = r.PerSecond
			}
			if r.Protocol == "central-site 3PC" {
				per3 = r.PerSecond
			}
		}
	}
	b.ReportMetric(per2, "2pc-txn/s")
	b.ReportMetric(per3, "3pc-txn/s")
}

func BenchmarkTab6Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		failures, report := experiments.Tab6Recovery(10)
		if failures != 0 {
			b.Fatalf("recovery failures:\n%s", report)
		}
	}
}

func BenchmarkAbl1BackupPhase1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		withV, withoutV, report := experiments.Abl1BackupPhase1()
		if withV != 0 {
			b.Fatalf("phase 1 enabled yet inconsistent:\n%s", report)
		}
		if withoutV == 0 {
			b.Fatalf("ablation failed to break safety:\n%s", report)
		}
	}
}

func BenchmarkAbl2NoBufferState(b *testing.B) {
	var two float64
	for i := 0; i < b.N; i++ {
		twoBlocked, threeBlocked, _ := experiments.Abl2NoBufferState(400, 1981)
		if threeBlocked != 0 || twoBlocked == 0 {
			b.Fatalf("ablation shape wrong: 2pc=%.3f 3pc=%.3f", twoBlocked, threeBlocked)
		}
		two = twoBlocked
	}
	b.ReportMetric(100*two, "no-buffer-blocked-%")
}

func BenchmarkAbl3PartitionQuorum(b *testing.B) {
	var plain int
	for i := 0; i < b.N; i++ {
		plainV, quorumV, blocked, _ := experiments.Abl3PartitionQuorum(100)
		if quorumV != 0 {
			b.Fatalf("quorum 3PC violated atomicity %d times", quorumV)
		}
		if plainV == 0 {
			b.Fatal("plain 3PC never violated atomicity under partitions")
		}
		if blocked == 0 {
			b.Fatal("quorum never blocked a minority: sweep shape wrong")
		}
		plain = plainV
	}
	b.ReportMetric(float64(plain), "plain-3pc-violations")
}

func BenchmarkTab7BlockedTimeVsMTTR(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Tab7BlockedTimeVsMTTR([]time.Duration{
			20 * time.Millisecond, 100 * time.Millisecond,
		}, 1981)
		if len(rows) != 2 {
			b.Fatal("rows")
		}
		// 2PC tracks MTTR; 3PC is constant.
		if rows[1].TwoPCDone-rows[0].TwoPCDone != rows[1].MTTR-rows[0].MTTR {
			b.Fatalf("2PC should track MTTR: %+v", rows)
		}
		if rows[1].ThreePDone != rows[0].ThreePDone {
			b.Fatalf("3PC should be MTTR-independent: %+v", rows)
		}
		ratio = float64(rows[1].TwoPCDone) / float64(rows[1].ThreePDone)
	}
	b.ReportMetric(ratio, "2pc/3pc-done-ratio@100ms")
}

func BenchmarkTab8Contention(b *testing.B) {
	var timeoutAbort, waitDieAbort float64
	for i := 0; i < b.N; i++ {
		rows, _ := experiments.Tab8Contention(3, 4, 25, 1981)
		if len(rows) != 2 {
			b.Fatal("rows")
		}
		for _, r := range rows {
			if r.Committed == 0 {
				b.Fatalf("%s committed nothing", r.Policy)
			}
		}
		timeoutAbort, waitDieAbort = rows[0].AbortPct, rows[1].AbortPct
	}
	b.ReportMetric(timeoutAbort, "timeout-abort-%")
	b.ReportMetric(waitDieAbort, "waitdie-abort-%")
}
