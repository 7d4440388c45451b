// Command dst drives the deterministic simulation explorer from the command
// line: it exhaustively enumerates single-crash-point schedules and sweeps
// seeded random failure schedules over the real commit engine, checking the
// paper's consistency and nonblocking theorems on every run. Any violation
// prints a reproducer invocation and exits nonzero.
//
// -hostile all sweeps the curated hostile-scenario matrix (matrix.go) over
// seeds 1..-seeds for 2PC, 3PC and Paxos Commit, writing blocking
// probability, availability and virtual-time latency per cell as JSON to
// stdout.
//
// Usage:
//
//	go run ./cmd/dst                      # enumerate + 500 random seeds, 2PC, 3PC and Paxos
//	go run ./cmd/dst -protocol paxos -seeds 5000
//	go run ./cmd/dst -protocol 3pc -seed 113 -trace   # replay one schedule
//	go run ./cmd/dst -regress                         # replay the pinned-bug seeds
//	go run ./cmd/dst -hostile coord-crash-prepared -protocol 2pc -seed 4 -trace
//	go run ./cmd/dst -hostile all -seeds 25 > BENCH_chaos.json
package main

import (
	"flag"
	"fmt"
	"os"

	"nbcommit/internal/dst"
	"nbcommit/internal/engine"
)

func main() {
	var (
		protocol = flag.String("protocol", "all", "protocol to explore: 2pc, 3pc, paxos, both (2pc+3pc), or all")
		sites    = flag.Int("sites", 3, "cohort size")
		seeds    = flag.Int("seeds", 500, "number of random schedules per protocol")
		seed     = flag.Int64("seed", -1, "replay a single random schedule instead of sweeping")
		enum     = flag.Bool("enum", true, "run the exhaustive single-crash-point enumeration")
		trace    = flag.Bool("trace", false, "print the event trace of every failing (or -seed) run")
		hostile  = flag.String("hostile", "", "replay one hostile scenario by name (see internal/dst.HostileScenarios), or sweep them all as a JSON matrix with 'all'")
		regress  = flag.Bool("regress", false, "replay the pinned engine-bug regression seeds and exit")
	)
	flag.Parse()

	var kinds []engine.ProtocolKind
	switch *protocol {
	case "both":
		kinds = []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase}
	case "all":
		kinds = []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase, engine.PaxosCommit}
	default:
		kind, err := engine.ParseProtocol(*protocol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dst: %v (or: both, all)\n", err)
			os.Exit(2)
		}
		kinds = []engine.ProtocolKind{kind}
	}

	if *regress {
		os.Exit(runRegress(*trace))
	}
	if *hostile == "all" {
		if *protocol != "all" {
			fmt.Fprintln(os.Stderr, "dst: -hostile all sweeps every protocol; -protocol must be all")
			os.Exit(2)
		}
		if err := runChaos(*seeds); err != nil {
			fmt.Fprintf(os.Stderr, "dst: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *hostile != "" {
		os.Exit(runHostileReplay(*hostile, kinds, *seed, *trace))
	}

	failed := false
	for _, kind := range kinds {
		cfg := dst.Config{Protocol: kind, Sites: *sites}

		if *seed >= 0 {
			r := dst.RunRandom(cfg, *seed)
			printReport(r, *trace || len(r.Violations) > 0)
			failed = failed || len(r.Violations) > 0
			continue
		}

		if *enum {
			reports := dst.ExploreCrashPoints(cfg)
			blocked, bad := 0, 0
			for _, r := range reports {
				if r.Blocked {
					blocked++
				}
				if len(r.Violations) > 0 {
					bad++
					printReport(r, *trace)
					failed = true
				}
			}
			fmt.Printf("%s: enumerated %d single-crash schedules: %d blocking, %d violating\n",
				kind, len(reports), blocked, bad)
			if kind == engine.TwoPhase && blocked == 0 {
				fmt.Printf("%s: NEGATIVE CONTROL FAILED: no enumerated schedule blocks 2PC\n", kind)
				failed = true
			}
		}

		blocked, bad := 0, 0
		for s := int64(1); s <= int64(*seeds); s++ {
			r := dst.RunRandom(cfg, s)
			if r.Blocked {
				blocked++
			}
			if len(r.Violations) > 0 {
				bad++
				printReport(r, *trace)
				fmt.Printf("  replay: go run ./cmd/dst -protocol %s -sites %d -seed %d -trace\n",
					protoFlag(kind), *sites, s)
				failed = true
			}
		}
		fmt.Printf("%s: swept %d random schedules: %d blocking, %d violating\n",
			kind, *seeds, blocked, bad)
	}

	if failed {
		os.Exit(1)
	}
}

// runRegress replays every pinned engine-bug seed (internal/dst
// RegressionScenarios); any violation means a previously fixed bug regressed.
func runRegress(trace bool) int {
	code := 0
	for _, rs := range dst.RegressionScenarios() {
		for _, r := range dst.RunRegression(rs) {
			status := "ok"
			if len(r.Violations) > 0 {
				status = "REGRESSED"
				code = 1
			}
			fmt.Printf("%-28s %-6s %-48s %s\n", rs.Name, rs.Protocol, r.Scenario, status)
			if len(r.Violations) > 0 {
				fmt.Printf("  bug: %s\n", rs.Bug)
				printReport(r, trace)
			}
		}
	}
	return code
}

// runHostileReplay replays one curated hostile scenario for one seed,
// printing the per-transaction measurements (and the full trace with -trace).
func runHostileReplay(name string, kinds []engine.ProtocolKind, seed int64, trace bool) int {
	sc, ok := dst.HostileScenarioByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "dst: unknown hostile scenario %q; available:\n", name)
		for _, s := range dst.HostileScenarios() {
			fmt.Fprintf(os.Stderr, "  %-22s %s\n", s.Name, s.Desc)
		}
		return 2
	}
	if seed < 0 {
		seed = 1
	}
	code := 0
	for _, kind := range kinds {
		r := dst.RunHostile(sc.Config(kind, seed))
		printReport(r.Report, trace)
		for _, txn := range r.Txns {
			state := "RESOLVED"
			switch {
			case txn.Blocked && !txn.Resolved:
				state = "BLOCKED"
			case !txn.Resolved:
				state = "unresolved"
			}
			fmt.Printf("  %-4s coord=%d launched=%7.1fms answer=%7.1fms resolved=%7.1fms outcome=%-9s %s\n",
				txn.ID, txn.Coord, txn.LaunchedMs, txn.AnswerMs, txn.ResolvedMs, txn.Outcome, state)
		}
		if len(r.BlockedSites) > 0 {
			fmt.Printf("  blocked sites: %v\n", r.BlockedSites)
		}
		if r.SplitTxns > 0 {
			fmt.Printf("  split decisions: %d\n", r.SplitTxns)
		}
		if len(r.Violations) > r.SplitTxns {
			code = 1
		}
	}
	return code
}

func printReport(r dst.Report, withTrace bool) {
	fmt.Printf("%s: %s (%d steps, blocked=%v, wal=%s)\n",
		r.Protocol, r.Scenario, r.Steps, r.Blocked, r.WALDigest)
	for _, v := range r.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
	if withTrace {
		for i, line := range r.Trace {
			fmt.Printf("  %4d %s\n", i, line)
		}
	}
}

func protoFlag(k engine.ProtocolKind) string {
	switch k {
	case engine.ThreePhase:
		return "3pc"
	case engine.PaxosCommit:
		return "paxos"
	}
	return "2pc"
}
