package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"nbcommit/internal/dst"
	"nbcommit/internal/engine"
	"nbcommit/internal/metrics"
)

// chaosCell is one (scenario, protocol) cell of the hostility matrix,
// aggregated over all seeds. Latencies are virtual milliseconds — the
// simulated WAN clock, not the host's.
type chaosCell struct {
	Protocol            string  `json:"protocol"`
	Seeds               int     `json:"seeds"`
	Txns                int     `json:"txns"`
	Answered            int     `json:"answered"`
	Resolved            int     `json:"resolved"`
	Committed           int     `json:"committed"`
	BlockedSeeds        int     `json:"blocked_seeds"`
	BlockingProbability float64 `json:"blocking_probability"`
	// Availability: fraction of txns some alive site could answer a client
	// about. AvailabilityFault restricts to txns launched inside the fault
	// window and requires the answer before the fault ends (before heal).
	Availability      float64 `json:"availability"`
	AvailabilityFault float64 `json:"availability_during_fault"`
	P50Ms             float64 `json:"p50_ms"`
	P95Ms             float64 `json:"p95_ms"`
	P99Ms             float64 `json:"p99_ms"`
	MaxMs             float64 `json:"max_ms"`
	SplitSeeds        int     `json:"split_seeds"`
	// FirstBlockedSeed replays a blocking run:
	//   go run ./cmd/dst -hostile <scenario> -protocol <p> -seed <s> -trace
	FirstBlockedSeed int64 `json:"first_blocked_seed,omitempty"`
}

// chaosScenarioResult is one scenario row: every protocol's cell.
type chaosScenarioResult struct {
	Name  string               `json:"name"`
	Desc  string               `json:"desc"`
	Cells map[string]chaosCell `json:"cells"`
}

type chaosReport struct {
	Topology     string                `json:"topology"`
	SeedsPerCell int                   `json:"seeds_per_cell"`
	Scenarios    []chaosScenarioResult `json:"scenarios"`
	// BlockingGapScenarios lists scenarios where 2PC blocked on some seed
	// and 3PC never did — the paper's nonblocking claim, measured.
	BlockingGapScenarios []string `json:"blocking_gap_scenarios"`
	// PaxosCleanScenarios lists scenarios Paxos Commit survived with zero
	// blocked seeds AND zero split decisions — the cells where 2PC blocks or
	// 3PC risks a split while the replicated decision stays both safe and
	// available.
	PaxosCleanScenarios []string `json:"paxos_clean_scenarios"`
}

// runChaos sweeps the curated hostile scenario table for all three protocol
// families over seeds 1..seedsPerCell, prints one line per scenario to
// stderr and writes the aggregated matrix as JSON to stdout. It fails if 2PC
// or Paxos ever splits a decision (only 3PC may diverge, under partitions —
// its known quorum-less defect), if any harness-level failure surfaces (for
// Paxos that includes a single termination-protocol message), if no scenario
// exhibits the 2PC-blocks-3PC-terminates gap, or if Paxos's fault-free WAN
// p50 is not below 3PC's (the two-message-delay fast path is the point of
// the ballot-0 optimization). The JSON is written only after every gate
// passes, so a failed run prints none.
func runChaos(seedsPerCell int) error {
	scenarios := dst.HostileScenarios()
	rep := chaosReport{SeedsPerCell: seedsPerCell}
	if len(scenarios) > 0 {
		rep.Topology = scenarios[0].Topo.Name
	}

	for _, sc := range scenarios {
		row := chaosScenarioResult{Name: sc.Name, Desc: sc.Desc, Cells: map[string]chaosCell{}}
		for _, proto := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase, engine.PaxosCommit} {
			cell := chaosCell{Protocol: proto.String(), Seeds: seedsPerCell}
			var lat metrics.Histogram
			faultTxns, faultAnswered := 0, 0
			faultEndMs := float64(sc.FaultEnd) / float64(time.Millisecond)
			for seed := int64(1); seed <= int64(seedsPerCell); seed++ {
				r := dst.RunHostile(sc.Config(proto, seed))
				// Violations beyond the consistency splits are harness-level
				// failures (recovery errors etc.) and always fatal.
				if len(r.Violations) > r.SplitTxns {
					return fmt.Errorf("chaos %s/%s seed %d harness failure: %v",
						sc.Name, proto, seed, r.Violations[r.SplitTxns:])
				}
				if r.SplitTxns > 0 {
					cell.SplitSeeds++
					if proto != engine.ThreePhase {
						// Only 3PC may split (under partitions); 2PC blocks
						// instead, and Paxos decides by majority consensus.
						return fmt.Errorf("chaos %s/%s seed %d split a decision: %v (replay: go run ./cmd/dst -hostile %s -protocol %s -seed %d -trace)",
							sc.Name, proto, seed, r.Violations, sc.Name, protoFlag(proto), seed)
					}
				}
				if len(r.BlockedSites) > 0 {
					if cell.BlockedSeeds == 0 {
						cell.FirstBlockedSeed = seed
					}
					cell.BlockedSeeds++
				}
				for _, t := range r.Txns {
					cell.Txns++
					if t.DuringFault {
						faultTxns++
					}
					if t.Resolved {
						cell.Resolved++
					}
					if t.Answered {
						cell.Answered++
						if t.Outcome == "committed" {
							cell.Committed++
						}
						if t.DuringFault && t.AnswerMs < faultEndMs {
							faultAnswered++
						}
						lat.Observe(time.Duration(t.LatencyMs * float64(time.Millisecond)))
					}
				}
			}
			cell.BlockingProbability = ratio(cell.BlockedSeeds, seedsPerCell)
			cell.Availability = ratio(cell.Answered, cell.Txns)
			cell.AvailabilityFault = ratio(faultAnswered, faultTxns)
			if faultTxns == 0 {
				cell.AvailabilityFault = cell.Availability
			}
			cell.P50Ms = ms2(lat.Quantile(0.50))
			cell.P95Ms = ms2(lat.Quantile(0.95))
			cell.P99Ms = ms2(lat.Quantile(0.99))
			cell.MaxMs = ms2(lat.Max())
			row.Cells[proto.String()] = cell
		}
		rep.Scenarios = append(rep.Scenarios, row)

		two, three, px := row.Cells["2PC"], row.Cells["3PC"], row.Cells["Paxos"]
		if two.BlockedSeeds > 0 && three.BlockedSeeds == 0 {
			rep.BlockingGapScenarios = append(rep.BlockingGapScenarios, sc.Name)
		}
		if px.BlockedSeeds == 0 && px.SplitSeeds == 0 {
			rep.PaxosCleanScenarios = append(rep.PaxosCleanScenarios, sc.Name)
		}
		fmt.Fprintf(os.Stderr, "%-22s 2PC block=%.2f avail=%.2f p50=%6.1f | 3PC split=%d avail=%.2f p50=%6.1f | Paxos split=%d avail=%.2f p50=%6.1f\n",
			sc.Name,
			two.BlockingProbability, two.AvailabilityFault, two.P50Ms,
			three.SplitSeeds, three.AvailabilityFault, three.P50Ms,
			px.SplitSeeds, px.AvailabilityFault, px.P50Ms)
	}

	if len(rep.BlockingGapScenarios) == 0 {
		return fmt.Errorf("chaos: no scenario exhibits the 2PC-blocks-while-3PC-terminates gap — the matrix lost its negative control")
	}
	fmt.Fprintf(os.Stderr, "blocking gap (2PC blocks, 3PC terminates): %v\n", rep.BlockingGapScenarios)
	fmt.Fprintf(os.Stderr, "paxos clean (no blocking, no splits): %v\n", rep.PaxosCleanScenarios)
	for _, sc := range rep.Scenarios {
		if sc.Name != "wan-baseline" {
			continue
		}
		three, px := sc.Cells["3PC"], sc.Cells["Paxos"]
		if px.P50Ms >= three.P50Ms {
			return fmt.Errorf("chaos: fault-free WAN p50 regression: Paxos %.1fms >= 3PC %.1fms — the ballot-0 two-delay fast path is gone",
				px.P50Ms, three.P50Ms)
		}
		fmt.Fprintf(os.Stderr, "fault-free WAN p50: Paxos %.1fms < 3PC %.1fms (2PC %.1fms)\n",
			px.P50Ms, three.P50Ms, sc.Cells["2PC"].P50Ms)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(buf, '\n'))
	return err
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ms2(d time.Duration) float64 {
	return float64(d.Round(10*time.Microsecond)) / float64(time.Millisecond)
}
