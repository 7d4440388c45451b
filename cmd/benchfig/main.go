// Command benchfig regenerates every figure and table of the reproduction:
//
//	benchfig             print everything
//	benchfig -fig T1     print one experiment (F1..F8, T1..T8, A1..A3)
//	benchfig -trials N   sweep size for the statistical experiments
//
// See EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nbcommit/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "experiment to run: F1..F8, T1..T8, A1..A3, or all")
	trials := flag.Int("trials", 2000, "trials per statistical sweep")
	seed := flag.Int64("seed", 1981, "random seed")
	txns := flag.Int("txns", 300, "transactions for the throughput run (T5)")
	flag.Parse()

	runners := map[string]func(){
		"F1": func() { fmt.Print(experiments.Fig1CentralSite2PC(3)) },
		"F2": func() { _, s := experiments.Fig2ReachableGraph2PC(); fmt.Print(s) },
		"F3": func() { fmt.Print(experiments.Fig3ConcurrencySets([]int{2, 3, 4})) },
		"F4": func() { fmt.Print(experiments.Fig4TheoremOn2PC(3)) },
		"F5": func() { fmt.Print(experiments.Fig5Synthesis(3)) },
		"F6": func() { fmt.Print(experiments.Fig6ThreePCNonblocking([]int{2, 3})) },
		"F7": func() { fmt.Print(experiments.Fig7TerminationRule()) },
		"F8": func() { fmt.Print(experiments.Fig8Resilience(3)) },
		"T1": func() { _, s := experiments.Tab1BlockingProbability([]int{3, 5, 9, 17}, *trials, *seed); fmt.Print(s) },
		"T2": func() { _, s := experiments.Tab2Availability(5, []int{1, 2, 3}, *trials, *seed); fmt.Print(s) },
		"T3": func() { _, s := experiments.Tab3MessageCost([]int{2, 4, 8, 16, 32, 64}); fmt.Print(s) },
		"T4": func() { _, s := experiments.Tab4Latency([]int{2, 4, 8, 16}); fmt.Print(s) },
		"T5": func() { _, s := experiments.Tab5Throughput(4, *txns, *seed); fmt.Print(s) },
		"T6": func() { _, s := experiments.Tab6Recovery(25); fmt.Print(s) },
		"T7": func() {
			_, s := experiments.Tab7BlockedTimeVsMTTR([]time.Duration{
				10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
				100 * time.Millisecond, 200 * time.Millisecond,
			}, *seed)
			fmt.Print(s)
		},
		"T8": func() { _, s := experiments.Tab8Contention(3, 8, 40, *seed); fmt.Print(s) },
		"A1": func() { _, _, s := experiments.Abl1BackupPhase1(); fmt.Print(s) },
		"A2": func() { _, _, s := experiments.Abl2NoBufferState(*trials, *seed); fmt.Print(s) },
		"A3": func() { _, _, _, s := experiments.Abl3PartitionQuorum(200); fmt.Print(s) },
	}
	order := []string{"F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8",
		"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "A1", "A2", "A3"}

	name := strings.ToUpper(*fig)
	if name == "ALL" {
		for _, id := range order {
			runners[id]()
			fmt.Println()
		}
		return
	}
	run, ok := runners[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchfig: unknown experiment %q (want F1..F8, T1..T8, A1..A3, all)\n", *fig)
		os.Exit(2)
	}
	run()
}
