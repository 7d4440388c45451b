package dst

import (
	"time"

	"nbcommit/internal/chaos"
	"nbcommit/internal/engine"
	"nbcommit/internal/wal"
)

// HostileScenario is one curated hostile environment: a topology, a timed
// fault schedule, and a timed workload, parameterized only by protocol and
// seed. The table below is the matrix every commit protocol in this repo is
// judged by (go run ./cmd/dst -hostile all, checked in as BENCH_chaos.json).
type HostileScenario struct {
	Name string
	Desc string
	Topo chaos.Topology
	// Build returns the events, launches and fault window for one run.
	Events               []chaos.Event
	Launches             []TxnLaunch
	FaultStart, FaultEnd time.Duration
	Timeout              time.Duration
	SiteTimeouts         map[int]time.Duration
	Horizon              time.Duration
}

// Config instantiates the scenario for one protocol and seed.
func (s HostileScenario) Config(proto engine.ProtocolKind, seed int64) HostileConfig {
	return HostileConfig{
		Protocol:     proto,
		Topology:     s.Topo,
		Events:       s.Events,
		Launches:     s.Launches,
		Seed:         seed,
		Timeout:      s.Timeout,
		SiteTimeouts: s.SiteTimeouts,
		FaultStart:   s.FaultStart,
		FaultEnd:     s.FaultEnd,
		Horizon:      s.Horizon,
	}
}

// wanLaunches spreads n transactions every gap across coordinators cycling
// through all regions (sites 1, 3, 5, 2, 4, 6 for a 3x2 topology), starting
// at t=0.
func wanLaunches(topo chaos.Topology, n int, gap time.Duration) []TxnLaunch {
	coords := make([]int, 0, topo.Sites())
	// Cycle region-first so consecutive launches come from different regions.
	for off := 0; off < topo.PerRegion; off++ {
		for r := 0; r < topo.Regions; r++ {
			coords = append(coords, r*topo.PerRegion+1+off)
		}
	}
	out := make([]TxnLaunch, n)
	for i := range out {
		out[i] = TxnLaunch{At: time.Duration(i) * gap, Coord: coords[i%len(coords)]}
	}
	return out
}

// HostileScenarios returns the curated scenario table: the four hostile
// cells the ISSUE's acceptance matrix requires, plus the blocking control.
// All scenarios run on the default 3-region x 2-site WAN with ~1ms
// intra-region and 40-120ms (lognormal, lossy) cross-region links.
func HostileScenarios() []HostileScenario {
	topo := chaos.DefaultWAN(3, 2)
	// Faults land at 300ms (mid-protocol for the early launches) and heal at
	// 2.5s: long enough that the 1s protocol timeout fires — and answers
	// clients — inside the fault window.
	const (
		faultAt = 300 * time.Millisecond
		healAt  = 2500 * time.Millisecond
	)
	launches := wanLaunches(topo, 8, 250*time.Millisecond)
	return []HostileScenario{
		{
			Name:     "wan-baseline",
			Desc:     "3 regions x 2 sites, heavy-tailed cross-region links, no faults: the cross-region tail-latency cost of each protocol's message rounds",
			Topo:     topo,
			Launches: launches,
		},
		{
			Name:       "partition-sym",
			Desc:       "region 0 (sites 1-2) cut off both ways mid-protocol, healed at 1.5s: commit availability during and after a symmetric partition",
			Topo:       topo,
			Events:     []chaos.Event{chaos.PartitionRegion(faultAt, 0), chaos.HealRegion(healAt, 0)},
			Launches:   launches,
			FaultStart: faultAt,
			FaultEnd:   healAt,
		},
		{
			Name: "partition-asym",
			Desc: "site 1's outbound links cut while inbound still delivers (asymmetric partition): coordinators hear votes nobody hears answered",
			Topo: topo,
			Events: []chaos.Event{
				chaos.IsolateOutbound(faultAt, 1),
				chaos.HealOutbound(healAt, 1),
			},
			Launches:   launches,
			FaultStart: faultAt,
			FaultEnd:   healAt,
		},
		{
			Name: "gray-coordinator",
			Desc: "site 1 stays alive per the failure detector but runs 25x slower, with site 3's timeout skewed to half: the slow-but-alive trap for timeout-based suspicion",
			Topo: topo,
			Events: []chaos.Event{
				chaos.Gray(100*time.Millisecond, 1, 25),
				chaos.SkewTimeout(100*time.Millisecond, 3, 0.5),
				chaos.ClearGray(1800*time.Millisecond, 1),
			},
			Launches:   launches,
			FaultStart: 100 * time.Millisecond,
			FaultEnd:   1800 * time.Millisecond,
		},
		{
			Name: "coord-crash-prepared",
			Desc: "coordinator crashes after the cohort is prepared, no recovery: the paper's blocking scenario — 2PC participants stay in doubt, 3PC terminates",
			Topo: topo,
			Events: []chaos.Event{
				chaos.Crash(110*time.Millisecond, 1),
			},
			Launches: append([]TxnLaunch{{At: 0, Coord: 1}},
				wanLaunches(topo, 4, 400*time.Millisecond)[1:]...),
			FaultStart: 110 * time.Millisecond,
			FaultEnd:   20 * time.Second,
		},
	}
}

// HostileScenarioByName finds one curated scenario.
func HostileScenarioByName(name string) (HostileScenario, bool) {
	for _, s := range HostileScenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return HostileScenario{}, false
}

// RegressionScenario pins one previously fixed engine bug as a named,
// replayable schedule: the exact seeded random schedule that exposed it (see
// EXPERIMENTS.md, "Deterministic simulation testing"). Replaying it must
// produce zero violations forever; revert the fix and the listed seed fails
// again.
type RegressionScenario struct {
	Name     string
	Bug      string
	Protocol engine.ProtocolKind
	Seeds    []int64
	// Points replays enumerated single-crash schedules instead of seeded
	// random ones — used where the edge is a precise crash instant (a WAL
	// append) rather than a schedule the sweep happened to find.
	Points []CrashPoint
}

// RegressionScenarios returns the pinned-bug table.
func RegressionScenarios() []RegressionScenario {
	return []RegressionScenario{
		{
			Name:     "in-doubt-livelock",
			Bug:      "decentralized in-doubt recovered peer was retransmitted to forever; it must answer with its recovering status and route survivors into termination",
			Protocol: engine.ThreePhase,
			Seeds:    []int64{113},
		},
		{
			Name:     "lost-dxact-retransmission",
			Bug:      "peerTimeout rebroadcast votes but never the transaction distribution, so a peer that missed the initial D-XACT could never join",
			Protocol: engine.ThreePhase,
			Seeds:    []int64{59},
		},
		{
			Name:     "unsealed-q-2pc-split",
			Bug:      "a site answered a cooperative-termination STATUS-REQ with q, then voted on the late D-XACT anyway; answering from q must abort irrevocably first",
			Protocol: engine.TwoPhase,
			Seeds:    []int64{1988},
		},
		{
			Name:     "recovered-coordinator-stalemate",
			Bug:      "participants nudged a recovered-but-in-doubt coordinator with DECIDE-REQ forever; it must answer recovering and the nudger must run termination",
			Protocol: engine.ThreePhase,
			Seeds:    []int64{596, 2543},
		},
		{
			Name: "paxos-acceptor-recovery",
			Bug: "an acceptor that crashes after forcing an accept record but before its 2b reaches the leader must rebuild the durable accept on recovery; " +
				"the decision must remain learnable by any later ballot and consistent with what the acceptor promised",
			Protocol: engine.PaxosCommit,
			Points: []CrashPoint{
				// The vote-yes record IS the ballot-0 self-accept of the
				// site's own instance: crash the instant it is durable, with
				// the PX-2B/PX-2A that would announce it still unsent.
				{Site: 2, kind: afterAppend, Rec: wal.RecVoteYes, Nth: 1},
				{Site: 3, kind: afterAppend, Rec: wal.RecVoteYes, Nth: 1},
				// An accept taken from another instance's PX-2A, persisted
				// with the 2b reply lost in the crash — at each participant
				// and at the coordinator's co-located acceptor.
				{Site: 1, kind: afterAppend, Rec: wal.RecPaxosAccept, Nth: 1},
				{Site: 2, kind: afterAppend, Rec: wal.RecPaxosAccept, Nth: 1},
				{Site: 3, kind: afterAppend, Rec: wal.RecPaxosAccept, Nth: 1},
			},
		},
		{
			Name: "presumed-abort-recovery",
			Bug: "under presumed abort a 2PC coordinator that dies before deciding leaves no durable trace (its begin record is a lazy append that dies staged); " +
				"recovery must presume abort from the empty log and answer inquiries with no-trace, so in-doubt participants abort by presumption instead of blocking forever",
			Protocol: engine.TwoPhase,
			Points: []CrashPoint{
				// The lazy window itself: the coordinator dies with its begin
				// record staged but not yet flushed — recovery sees an empty
				// log and must not invent the transaction.
				{Site: 1, kind: afterAppend, Rec: wal.RecBegin, Nth: 1},
				// The coordinator dies after absorbing the first YES vote:
				// both participants hold forced vote records and are in
				// doubt, while the coordinator's only trace (the staged
				// begin) is lost with the crash. The recovered coordinator
				// must answer DECIDE-REQ with no-trace and the participants
				// must presume abort.
				{Site: 1, kind: afterDeliver, Msg: 1},
				// Settlement records are lazy in every protocol: crash each
				// role with its end record staged-but-unflushed and let
				// recovery re-run idempotent settlement from the durable
				// commit record.
				{Site: 1, kind: afterAppend, Rec: wal.RecEnd, Nth: 1},
				{Site: 2, kind: afterAppend, Rec: wal.RecEnd, Nth: 1},
			},
		},
		{
			Name:     "backup-protocol-drift",
			Bug:      "late in-flight messages advanced a synced site past the backup's phase-1 snapshot; the backup must decide from the state it broadcast, and synced sites are fenced",
			Protocol: engine.ThreePhase,
			Seeds:    []int64{4504, 31051, 570},
		},
	}
}

// RunRegression replays every seed and enumerated crash point of one pinned
// scenario, returning the reports in declaration order.
func RunRegression(rs RegressionScenario) []Report {
	var out []Report
	for _, seed := range rs.Seeds {
		out = append(out, RunRandom(Config{Protocol: rs.Protocol}, seed))
	}
	for _, cp := range rs.Points {
		out = append(out, RunCrashPoint(Config{Protocol: rs.Protocol}, cp))
	}
	return out
}
