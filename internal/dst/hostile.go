package dst

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"nbcommit/internal/chaos"
	"nbcommit/internal/engine"
)

// TxnLaunch schedules one transaction in a hostile run: launched at virtual
// time At from coordinator Coord over the full cluster cohort. Peer launches
// a decentralized transaction, with Coord as its initiating site.
type TxnLaunch struct {
	At    time.Duration
	Coord int
	Peer  bool
}

// HostileConfig describes one hostile-environment run: a WAN topology laid
// over the SimNetwork, a timed schedule of faults, and a timed workload. The
// (config, Seed) pair replays byte-for-byte.
type HostileConfig struct {
	Protocol engine.ProtocolKind
	Topology chaos.Topology
	Events   []chaos.Event
	Launches []TxnLaunch
	Seed     int64
	// Timeout is the base protocol timeout (virtual). Default 1s — above the
	// DefaultWAN tail of a full multi-round commit (3PC needs ~4-6
	// cross-region hops at a 60ms heavy-tailed median), below the curated
	// fault windows so timeouts still fire inside them.
	Timeout time.Duration
	// SiteTimeouts skews individual sites' timeouts from the start; the
	// SkewTimeout event changes them mid-run.
	SiteTimeouts map[int]time.Duration
	// FaultStart/FaultEnd bracket the scenario's fault window, used only to
	// classify which launches count toward during-fault availability.
	FaultStart, FaultEnd time.Duration
	// Horizon bounds virtual time (default 20s); MaxSteps bounds scheduler
	// steps (default 200000).
	Horizon  time.Duration
	MaxSteps int
}

// TxnResult is the measured fate of one launched transaction. Two notions of
// done matter in a hostile environment: Answered is the client's view (the
// coordinator reached a decision — commit availability), Resolved is the
// cluster's (every alive site knows the outcome — the paper's termination).
type TxnResult struct {
	ID         string  `json:"id"`
	Coord      int     `json:"coord"`
	LaunchedMs float64 `json:"launched_ms"`
	// Answered: the coordinator decided; AnswerMs/LatencyMs time it.
	Answered  bool    `json:"answered"`
	AnswerMs  float64 `json:"answer_ms,omitempty"`
	LatencyMs float64 `json:"latency_ms,omitempty"`
	// Resolved: every alive site that knows the transaction decided it.
	Resolved    bool    `json:"resolved"`
	ResolvedMs  float64 `json:"resolved_ms,omitempty"`
	Outcome     string  `json:"outcome"`
	Blocked     bool    `json:"blocked"`      // some alive site reported ErrBlocked
	DuringFault bool    `json:"during_fault"` // launched inside the fault window
}

// HostileReport is the outcome of one hostile run: the usual Report plus the
// per-transaction availability and latency measurements the chaos bench
// aggregates into the 2PC-vs-3PC matrix.
type HostileReport struct {
	Report
	Scenario     string
	Txns         []TxnResult
	BlockedSites []int // sites ever observed in the blocked state
	// SplitTxns counts transactions decided differently by two sites — the
	// consistency findings a hostile environment can force (3PC under
	// partitions); they also appear in Violations.
	SplitTxns int
	// Messages counts every message the sites sent during the run,
	// delivered or not.
	Messages int
}

// txnProbe tracks one launch through the run.
type txnProbe struct {
	launch     TxnLaunch
	id         string
	launched   bool
	answered   bool // some alive site decided: a client could learn the outcome
	answeredAt time.Duration
	resolved   bool // every alive site that knows the txn decided it
	resolvedAt time.Duration
	outcome    engine.Outcome
	blocked    bool
}

// RunHostile executes one hostile schedule: builds the topology on the
// simulated network, launches the timed workload, applies the timed fault
// events, and measures per-transaction resolution, blocking and latency in
// virtual time. The existing checkers run at the end: consistency splits are
// recorded both as Violations and as the SplitTxns count, since under
// partitions a split is a protocol finding to measure, not a harness bug.
func RunHostile(hc HostileConfig) HostileReport {
	if hc.Timeout == 0 {
		hc.Timeout = time.Second
	}
	if hc.Horizon == 0 {
		hc.Horizon = 20 * time.Second
	}
	if hc.MaxSteps == 0 {
		hc.MaxSteps = 200000
	}
	cfg := Config{
		Protocol:     hc.Protocol,
		Sites:        hc.Topology.Sites(),
		Timeout:      hc.Timeout,
		SiteTimeouts: hc.SiteTimeouts,
		Horizon:      hc.Horizon,
		MaxSteps:     hc.MaxSteps,
	}
	c := newCluster(cfg, nil)
	hr := HostileReport{Report: Report{
		Scenario: fmt.Sprintf("hostile %s seed=%d", hc.Topology.Name, hc.Seed),
		Protocol: hc.Protocol,
		Seed:     hc.Seed,
	}}

	// The hostile substrate: seeded link model over the virtual clock.
	c.net.Seed(hc.Seed)
	c.net.UseClock(c.clk.Now)
	hc.Topology.Apply(c.net)

	start := c.clk.Now()
	p := &plan{rng: rand.New(rand.NewSource(hc.Seed))}

	// Timed workload: each launch is a schedule event.
	probes := make([]*txnProbe, len(hc.Launches))
	for i, l := range hc.Launches {
		pr := &txnProbe{launch: l, id: fmt.Sprintf("t%d", i+1)}
		probes[i] = pr
		p.timed = append(p.timed, tevent{
			at:   l.At,
			name: fmt.Sprintf("launch %s coord=%d", pr.id, l.Coord),
			apply: func(c *cluster) {
				pr.launched = true
				if c.down[pr.launch.Coord] {
					c.tracef("launch %s: coordinator %d is down", pr.id, pr.launch.Coord)
					c.txids = append(c.txids, pr.id) // count it: launched into an outage
					return
				}
				if err := c.begin(pr.launch.Coord, pr.id, pr.launch.Peer); err != nil {
					c.tracef("launch %s failed: %v", pr.id, err)
				}
			},
		})
	}

	// Timed faults.
	for _, e := range hc.Events {
		ev := e
		p.timed = append(p.timed, tevent{
			at:    ev.At,
			name:  ev.String(),
			apply: func(c *cluster) { applyChaosEvent(c, hc.Topology, ev) },
		})
	}
	sortTimed(p.timed)

	// Observe at every virtual-time boundary: record the instant each
	// transaction became resolved everywhere alive, and any blocked state.
	blockedSites := map[int]bool{}
	c.observe = func() {
		now := c.clk.Now().Sub(start)
		for _, pr := range probes {
			if !pr.launched || pr.resolved {
				continue
			}
			pending, decided := false, false
			for _, id := range c.ids {
				if c.down[id] {
					continue
				}
				o, err := c.sites[id].Outcome(pr.id)
				switch {
				case errors.Is(err, engine.ErrBlocked):
					pr.blocked = true
					blockedSites[id] = true
					pending = true
				case err != nil:
					// site does not know the transaction: vacuous
				case o == engine.OutcomePending:
					pending = true
				default:
					decided = true
					pr.outcome = o
				}
			}
			if decided && !pr.answered {
				pr.answered = true
				pr.answeredAt = now
			}
			if decided && !pending {
				pr.resolved = true
				pr.resolvedAt = now
			}
		}
	}

	c.run(p)
	sent, _ := c.net.Stats()
	hr.Messages = int(sent)

	// Final verdicts: the standard checkers, with splits counted as data.
	snap := c.snapshot()
	checkConsistency(c, snap, &hr.Report)
	hr.SplitTxns = len(hr.Report.Violations)
	for _, views := range snap {
		for _, v := range views {
			if v.blocked {
				hr.Report.Blocked = true
			}
		}
	}
	for id := range blockedSites {
		hr.Report.Blocked = true
		hr.BlockedSites = append(hr.BlockedSites, id)
	}
	sort.Ints(hr.BlockedSites)
	finishReport(c, &hr.Report)

	for _, pr := range probes {
		tr := TxnResult{
			ID:         pr.id,
			Coord:      pr.launch.Coord,
			LaunchedMs: durMs(pr.launch.At),
			Answered:   pr.answered,
			Resolved:   pr.resolved,
			Outcome:    "pending",
			Blocked:    pr.blocked,
			DuringFault: hc.FaultEnd > hc.FaultStart &&
				pr.launch.At >= hc.FaultStart && pr.launch.At < hc.FaultEnd,
		}
		if pr.answered {
			tr.AnswerMs = durMs(pr.answeredAt)
			tr.LatencyMs = durMs(pr.answeredAt - pr.launch.At)
			tr.Outcome = pr.outcome.String()
		}
		if pr.resolved {
			tr.ResolvedMs = durMs(pr.resolvedAt)
		}
		hr.Txns = append(hr.Txns, tr)
	}
	return hr
}

// applyChaosEvent maps one declarative chaos event onto the live cluster.
func applyChaosEvent(c *cluster, topo chaos.Topology, e chaos.Event) {
	switch e.Kind {
	case chaos.EventPartitionRegion:
		for _, pr := range topo.CrossPairs(e.Region) {
			c.net.BlockOneWay(pr[0], pr[1])
			c.net.BlockOneWay(pr[1], pr[0])
		}
	case chaos.EventHealRegion:
		for _, pr := range topo.CrossPairs(e.Region) {
			c.net.UnblockOneWay(pr[0], pr[1])
			c.net.UnblockOneWay(pr[1], pr[0])
		}
	case chaos.EventIsolateOutbound:
		for b := 1; b <= topo.Sites(); b++ {
			if b != e.Site {
				c.net.BlockOneWay(e.Site, b)
			}
		}
	case chaos.EventHealOutbound:
		for b := 1; b <= topo.Sites(); b++ {
			if b != e.Site {
				c.net.UnblockOneWay(e.Site, b)
			}
		}
	case chaos.EventGray:
		c.net.SetGray(e.Site, e.Factor)
	case chaos.EventClearGray:
		c.net.SetGray(e.Site, 1)
	case chaos.EventCrash:
		if !c.down[e.Site] && c.aliveCount() > 1 {
			c.crash(e.Site)
		}
	case chaos.EventRecover:
		c.recoverSite(e.Site)
	case chaos.EventSkewTimeout:
		if s := c.sites[e.Site]; s != nil && !c.down[e.Site] && e.Factor > 0 {
			s.SetTimeout(time.Duration(float64(c.timeoutFor(e.Site)) * e.Factor))
		}
	}
}

// sortTimed orders timed events by instant, stable so same-instant events
// keep declaration order (launches before faults declared after them).
func sortTimed(evs []tevent) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
}

func durMs(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
