package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nbcommit/internal/chaos"
	"nbcommit/internal/dst"
	"nbcommit/internal/dtx"
	"nbcommit/internal/engine"
	"nbcommit/internal/kv"
	"nbcommit/internal/sim"
	"nbcommit/internal/transport"
	"nbcommit/internal/workload"
)

// The paper's quantitative claims (T1–T4, T7, A2) are measured on the real
// engine: every trial is one dst.RunHostile run of engine.Site over the
// simulated network and virtual clock, on a one-region topology whose links
// all share one model. A trial launches one transaction at time zero from
// site 1, over the whole cluster.

// commitProtocol is one of the paper's four protocols: a family run in one
// paradigm.
type commitProtocol struct {
	Name string
	Kind engine.ProtocolKind
	Peer bool // decentralized paradigm
}

var (
	central2PC       = commitProtocol{"central-2PC", engine.TwoPhase, false}
	central3PC       = commitProtocol{"central-3PC", engine.ThreePhase, false}
	decentralized2PC = commitProtocol{"decentralized-2PC", engine.TwoPhase, true}
	decentralized3PC = commitProtocol{"decentralized-3PC", engine.ThreePhase, true}
	paperProtocols   = []commitProtocol{central2PC, central3PC, decentralized2PC, decentralized3PC}
)

// SkeenMessages is the paper's failure-free message count for an n-site
// commit: central protocols send one message per slave per round (three
// rounds for 2PC, five for 3PC); decentralized ones broadcast every round
// from every site (one round for 2PC, two for 3PC). The engine sends n−1
// more: the central participants' DEC-ACKs, which let the coordinator
// forget, and the decentralized initiator's D-XACTs, which the paper leaves
// to the environment.
func SkeenMessages(name string, n int) int {
	switch name {
	case central2PC.Name:
		return 3 * (n - 1)
	case central3PC.Name:
		return 5 * (n - 1)
	case decentralized2PC.Name:
		return n * (n - 1)
	case decentralized3PC.Name:
		return 2 * n * (n - 1)
	}
	return 0
}

// Link models: T3, T4 and T7 use fixed 1 ms links, so completion times count
// link delays exactly; the failure sweeps draw each delay from 1–2 ms.
var (
	fixedLink  = transport.LinkModel{Delay: transport.FixedDelay(time.Millisecond)}
	jitterLink = transport.LinkModel{Delay: transport.UniformDelay(time.Millisecond, 2*time.Millisecond)}
)

// sweepTimeout is the engine's protocol timeout in the failure sweeps.
const sweepTimeout = 50 * time.Millisecond

// runTrial runs one transaction on an n-site cluster under the given faults.
func runTrial(p commitProtocol, n int, link transport.LinkModel, timeout time.Duration, seed int64, events ...chaos.Event) dst.HostileReport {
	return dst.RunHostile(dst.HostileConfig{
		Protocol: p.Kind,
		Topology: chaos.WAN("lan", 1, n, link, link),
		Events:   events,
		Launches: []dst.TxnLaunch{{Coord: 1, Peer: p.Peer}},
		Seed:     seed,
		Timeout:  timeout,
	})
}

// sweepStats counts a failure sweep's outcomes.
type sweepStats struct {
	trials     int
	blocked    int // runs in which some operational site blocked
	terminated int // runs in which every operational site decided
	splits     int // transactions decided differently by two sites; must be 0
}

// crashSweep runs trials transactions, each under the crashes draw returns
// for it, over 1–2 ms links.
func crashSweep(p commitProtocol, n, trials int, seed int64, draw func(*rand.Rand) []chaos.Event) sweepStats {
	rng := rand.New(rand.NewSource(seed))
	var st sweepStats
	for i := 0; i < trials; i++ {
		events := draw(rng)
		r := runTrial(p, n, jitterLink, sweepTimeout, rng.Int63(), events...)
		st.trials++
		if r.Blocked {
			st.blocked++
		}
		if r.Txns[0].Resolved {
			st.terminated++
		}
		st.splits += r.SplitTxns
	}
	return st
}

// crashWindow is the span over which the sweeps draw crash times uniformly.
const crashWindow = 20 * time.Millisecond

func crashTime(rng *rand.Rand) time.Duration {
	return time.Duration(rng.Int63n(int64(crashWindow) + 1))
}

// coordinatorCrash crashes the coordinator, site 1.
func coordinatorCrash(rng *rand.Rand) []chaos.Event {
	return []chaos.Event{chaos.Crash(crashTime(rng), 1)}
}

// randomCrashes crashes k distinct random sites of n.
func randomCrashes(n, k int) func(*rand.Rand) []chaos.Event {
	return func(rng *rand.Rand) []chaos.Event {
		var events []chaos.Event
		for _, site := range rng.Perm(n)[:k] {
			events = append(events, chaos.Crash(crashTime(rng), site+1))
		}
		return events
	}
}

// Tab1 rows: blocking probability under a coordinator crash drawn uniformly
// over the protocol window, per cohort size. The paper's headline made
// quantitative: 2PC blocks with substantial probability, 3PC never.
type Tab1Row struct {
	N            int
	TwoPCBlocked float64
	ThreePC      float64
	Inconsistent int // split transactions across both protocols; must be 0
}

// Tab1BlockingProbability runs the coordinator-crash sweep.
func Tab1BlockingProbability(ns []int, trials int, seed int64) ([]Tab1Row, string) {
	var rows []Tab1Row
	var b strings.Builder
	b.WriteString("T1: blocking probability under coordinator crash (uniform over 20ms window)\n")
	b.WriteString("  n     2PC blocked   3PC blocked   inconsistent\n")
	for _, n := range ns {
		two := crashSweep(central2PC, n, trials, seed, coordinatorCrash)
		three := crashSweep(central3PC, n, trials, seed, coordinatorCrash)
		row := Tab1Row{
			N:            n,
			TwoPCBlocked: frac(two.blocked, two.trials),
			ThreePC:      frac(three.blocked, three.trials),
			Inconsistent: two.splits + three.splits,
		}
		rows = append(rows, row)
		fmt.Fprintf(&b, "  %-5d %10.1f%%  %10.1f%%   %d\n",
			n, 100*row.TwoPCBlocked, 100*row.ThreePC, row.Inconsistent)
	}
	return rows, b.String()
}

func frac(k, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(k) / float64(n)
}

// Tab2Row: availability under k random site crashes — the fraction of
// trials in which every operational site terminated the transaction.
type Tab2Row struct {
	Protocol     string
	K            int
	Terminated   float64
	Inconsistent int
}

// Tab2Availability runs the random-crash sweep for each protocol and
// failure count.
func Tab2Availability(n int, ks []int, trials int, seed int64) ([]Tab2Row, string) {
	var rows []Tab2Row
	var b strings.Builder
	fmt.Fprintf(&b, "T2: termination availability, n=%d, k random crashes\n", n)
	b.WriteString("  protocol             k   all-operational-terminated   inconsistent\n")
	for _, p := range paperProtocols {
		for _, k := range ks {
			st := crashSweep(p, n, trials, seed, randomCrashes(n, k))
			row := Tab2Row{Protocol: p.Name, K: k, Terminated: frac(st.terminated, st.trials), Inconsistent: st.splits}
			rows = append(rows, row)
			fmt.Fprintf(&b, "  %-20s %d   %8.1f%%                    %d\n",
				p.Name, k, 100*row.Terminated, row.Inconsistent)
		}
	}
	return rows, b.String()
}

// Tab3Row: failure-free messages per commit, as the engine sends them.
// SkeenMessages gives the paper's count for each protocol.
type Tab3Row struct {
	N          int
	C2PC, C3PC int
	D2PC, D3PC int
}

// Tab3MessageCost counts the messages of one failure-free commit per
// protocol and size. Expected: central linear (4(n-1) vs 6(n-1)),
// decentralized quadratic ((n-1)(n+1) vs (n-1)(2n+1)) — Skeen's counts plus
// n-1.
func Tab3MessageCost(ns []int) ([]Tab3Row, string) {
	var rows []Tab3Row
	var b strings.Builder
	b.WriteString("T3: failure-free messages per commit, engine (Skeen's model)\n")
	b.WriteString("  n     c2PC          c3PC          d2PC          d3PC\n")
	for _, n := range ns {
		msgs := func(p commitProtocol) int { return runTrial(p, n, fixedLink, sweepTimeout, 1).Messages }
		row := Tab3Row{
			N:    n,
			C2PC: msgs(central2PC), C3PC: msgs(central3PC),
			D2PC: msgs(decentralized2PC), D3PC: msgs(decentralized3PC),
		}
		rows = append(rows, row)
		fmt.Fprintf(&b, "  %-5d", n)
		for i, m := range []int{row.C2PC, row.C3PC, row.D2PC, row.D3PC} {
			fmt.Fprintf(&b, " %-13s", fmt.Sprintf("%d (%d)", m, SkeenMessages(paperProtocols[i].Name, n)))
		}
		b.WriteString("\n")
	}
	return rows, b.String()
}

// Tab4Row: failure-free commit latency, in link delays until every site
// has decided.
type Tab4Row struct {
	N                      int
	C2PC, C3PC, D2PC, D3PC int
}

// Tab4Latency counts the link delays until every site has decided one
// failure-free commit: 3PC pays one extra round; the decentralized paradigm
// needs one delay fewer per round than the central one.
func Tab4Latency(ns []int) ([]Tab4Row, string) {
	var rows []Tab4Row
	var b strings.Builder
	b.WriteString("T4: failure-free commit latency (link delays until every site decided)\n")
	b.WriteString("  n     c2PC  c3PC  d2PC  d3PC\n")
	for _, n := range ns {
		delays := func(p commitProtocol) int {
			r := runTrial(p, n, fixedLink, sweepTimeout, 1)
			return int(r.Txns[0].ResolvedMs)
		}
		row := Tab4Row{
			N:    n,
			C2PC: delays(central2PC), C3PC: delays(central3PC),
			D2PC: delays(decentralized2PC), D3PC: delays(decentralized3PC),
		}
		rows = append(rows, row)
		fmt.Fprintf(&b, "  %-5d %-5d %-5d %-5d %-5d\n", n, row.C2PC, row.C3PC, row.D2PC, row.D3PC)
	}
	return rows, b.String()
}

// Tab5Row: goroutine-runtime throughput on the bank workload.
type Tab5Row struct {
	Protocol   string
	Committed  int
	Aborted    int
	PerSecond  float64
	MeanCommit time.Duration
}

// Tab5Throughput drives the real runtime (engine + kv + WAL + in-memory
// transport) with the bank-transfer workload, across both protocols and
// both paradigms.
func Tab5Throughput(n, txns int, seed int64) ([]Tab5Row, string) {
	var rows []Tab5Row
	var b strings.Builder
	fmt.Fprintf(&b, "T5: runtime throughput, bank transfers, n=%d sites, %d txns\n", n, txns)
	b.WriteString("  protocol                     committed  aborted   txn/s      mean-latency\n")
	for _, paradigm := range []dtx.Paradigm{dtx.CentralSite, dtx.Decentralized} {
		for _, kind := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase} {
			row := runBank(kind, paradigm, n, txns, seed)
			rows = append(rows, row)
			fmt.Fprintf(&b, "  %-28s %-10d %-8d %-10.0f %v\n",
				row.Protocol, row.Committed, row.Aborted, row.PerSecond, row.MeanCommit)
		}
	}
	return rows, b.String()
}

func runBank(kind engine.ProtocolKind, paradigm dtx.Paradigm, n, txns int, seed int64) Tab5Row {
	cluster, err := dtx.NewCluster(n, dtx.Options{
		Protocol:    kind,
		Paradigm:    paradigm,
		Timeout:     250 * time.Millisecond,
		LockTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	defer cluster.Stop()
	gen := workload.NewBank(n, 64, seed)
	start := time.Now()
	var committed, aborted int
	var total time.Duration
	for i := 0; i < txns; i++ {
		w := gen.Next()
		tx, err := cluster.Begin(w.Coordinator)
		if err != nil {
			aborted++
			continue
		}
		failed := false
		for _, op := range w.Ops {
			if err := tx.Put(op.Site, op.Key, op.Value); err != nil {
				failed = true
				break
			}
		}
		if failed {
			tx.Abort()
			aborted++
			continue
		}
		t0 := time.Now()
		o, err := tx.Commit(5 * time.Second)
		if err == nil && o == engine.OutcomeCommitted {
			committed++
			total += time.Since(t0)
		} else {
			aborted++
		}
	}
	elapsed := time.Since(start)
	row := Tab5Row{
		Protocol:  fmt.Sprintf("%s %s", paradigm, kind),
		Committed: committed, Aborted: aborted,
	}
	if elapsed > 0 {
		row.PerSecond = float64(txns) / elapsed.Seconds()
	}
	if committed > 0 {
		row.MeanCommit = total / time.Duration(committed)
	}
	return row
}

// Tab6Recovery exercises crash+recovery end to end: commit with a
// participant crashing mid-protocol, recover it, and check that the store
// state matches the cohort's. Returns the number of trials and failures.
func Tab6Recovery(trials int) (failures int, report string) {
	var b strings.Builder
	fmt.Fprintf(&b, "T6: recovery correctness over %d crash/recover trials\n", trials)
	for i := 0; i < trials; i++ {
		if err := recoveryTrial(i); err != nil {
			failures++
			fmt.Fprintf(&b, "  trial %d FAILED: %v\n", i, err)
		}
	}
	fmt.Fprintf(&b, "  failures: %d/%d\n", failures, trials)
	return failures, b.String()
}

func recoveryTrial(i int) error {
	cluster, err := dtx.NewCluster(3, dtx.Options{
		Protocol: engine.ThreePhase,
		Timeout:  40 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer cluster.Stop()
	tx, err := cluster.Begin(1)
	if err != nil {
		return err
	}
	key := fmt.Sprintf("k%d", i)
	if err := tx.Put(2, key, "v"); err != nil {
		return err
	}
	if err := tx.Put(3, key, "v"); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() { defer close(done); tx.Commit(5 * time.Second) }()
	// Crash participant 3 at a pseudo-random point in the protocol.
	time.Sleep(time.Duration(i%7) * 3 * time.Millisecond)
	cluster.Crash(3)
	<-done
	o2, err := cluster.Node(2).Site.WaitOutcome(tx.ID, 5*time.Second)
	if err != nil {
		return fmt.Errorf("site 2: %w", err)
	}
	if err := cluster.Recover(3); err != nil {
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		o3, err := cluster.Node(3).Site.Outcome(tx.ID)
		if err == nil && o3 != engine.OutcomePending {
			if o3 != o2 {
				return fmt.Errorf("mixed outcomes: site2=%v site3=%v", o2, o3)
			}
			v3, ok := cluster.Node(3).Store.Read(key)
			if o2 == engine.OutcomeCommitted && (!ok || v3 != "v") {
				return fmt.Errorf("committed but site 3 store = %q/%v", v3, ok)
			}
			if o2 == engine.OutcomeAborted && ok {
				return fmt.Errorf("aborted but site 3 kept the write")
			}
			return nil
		}
		if err != nil && !strings.Contains(err.Error(), "does not know") {
			// A site that crashed before learning of the transaction has
			// nothing to recover; its store must simply lack the key.
			return err
		}
		if err != nil {
			// Site 3 never heard of the transaction: acceptable only if the
			// cohort aborted.
			if o2 == engine.OutcomeAborted {
				return nil
			}
			// Committed: the vote of site 3 was required. Keep waiting for
			// the record to appear (it must exist).
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("site 3 never resolved (site2=%v)", o2)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Abl1BackupPhase1 is the ablation for phase 1 of the backup protocol: with
// the deterministic schedule of the paper's failure argument, skipping
// phase 1 yields an inconsistent run; keeping it never does.
func Abl1BackupPhase1() (withViolations, withoutViolations int, report string) {
	base := sim.Config{
		N: 4, Protocol: sim.Central3PC, Seed: 7,
		LatencyMin: sim.Millisecond, LatencyMax: sim.Millisecond,
		Stagger: 2 * sim.Millisecond,
		CrashAt: map[int]sim.Time{
			1: 9 * sim.Millisecond,
			2: 15 * sim.Millisecond,
			3: 15*sim.Millisecond + 500*sim.Microsecond,
		},
	}
	with := sim.RunTransaction(base)
	base.SkipBackupPhase1 = true
	without := sim.RunTransaction(base)
	if !with.Consistent {
		withViolations++
	}
	if !without.Consistent {
		withoutViolations++
	}
	var b strings.Builder
	b.WriteString("A1: ablation — skip phase 1 of the backup protocol\n")
	fmt.Fprintf(&b, "  with phase 1:    consistent=%v\n", with.Consistent)
	fmt.Fprintf(&b, "  without phase 1: consistent=%v (mixed commit+abort=%v)\n",
		without.Consistent, without.Committed && without.Aborted)
	return withViolations, withoutViolations, b.String()
}

// Abl2NoBufferState ties the theory to the measurements: removing the
// buffer state (i.e. running 2PC) reintroduces exactly the blocking the
// theorem predicts.
func Abl2NoBufferState(trials int, seed int64) (twoBlocked, threeBlocked float64, report string) {
	rows, _ := Tab1BlockingProbability([]int{4}, trials, seed)
	two, three := rows[0].TwoPCBlocked, rows[0].ThreePC
	var b strings.Builder
	b.WriteString("A2: ablation — remove the buffer state (3PC -> 2PC)\n")
	fmt.Fprintf(&b, "  theorem: 2PC violates both conditions at w; 3PC satisfies both\n")
	fmt.Fprintf(&b, "  measured blocking: with buffer state %.2f%%, without %.2f%%\n",
		100*three, 100*two)
	return two, three, b.String()
}

// Abl3PartitionQuorum steps outside the paper's model: its network "never
// fails", and A3 shows why that assumption is load-bearing. Under a network
// partition placed anywhere in the protocol window, plain 3PC termination
// can commit on one side and abort on the other; the quorum-based extension
// (the paper's [SKEE81a] reference) never loses atomicity — minority groups
// block instead.
func Abl3PartitionQuorum(points int) (plainViolations, quorumViolations, quorumBlocked int, report string) {
	for i := 0; i < points; i++ {
		at := sim.Time(i)*100*sim.Microsecond + 1
		base := sim.Config{
			N: 5, Seed: 3,
			LatencyMin: sim.Millisecond, LatencyMax: sim.Millisecond,
			Stagger:         2 * sim.Millisecond,
			PartitionAt:     at,
			PartitionGroups: [][]int{{1, 2}, {3, 4, 5}},
		}
		base.Protocol = sim.Central3PC
		if res := sim.RunTransaction(base); !res.Consistent {
			plainViolations++
		}
		base.Protocol = sim.Quorum3PC
		res := sim.RunTransaction(base)
		if !res.Consistent {
			quorumViolations++
		}
		if res.Blocked {
			quorumBlocked++
		}
	}
	var b strings.Builder
	b.WriteString("A3: extension — partitions (outside the paper's model) and the quorum fix\n")
	fmt.Fprintf(&b, "  partition times swept: %d (every 100us across the window)\n", points)
	fmt.Fprintf(&b, "  plain 3PC atomicity violations:  %d\n", plainViolations)
	fmt.Fprintf(&b, "  quorum 3PC atomicity violations: %d (minority blocked in %d sweeps)\n",
		quorumViolations, quorumBlocked)
	return plainViolations, quorumViolations, quorumBlocked, report + b.String()
}

// Tab7Row: resolution time as a function of coordinator MTTR.
type Tab7Row struct {
	MTTR       time.Duration
	TwoPCDone  time.Duration // when every operational site had decided, 2PC
	ThreePDone time.Duration // same, 3PC
}

// Tab7BlockedTimeVsMTTR quantifies the cost of blocking: the coordinator
// crashes inside the uncertainty window and recovers after MTTR. Under 2PC
// the survivors decide only once the coordinator is back (resolution time
// ≈ MTTR); under 3PC they decide in constant time (failure detection +
// termination protocol), independent of MTTR.
func Tab7BlockedTimeVsMTTR(mttrs []time.Duration, seed int64) ([]Tab7Row, string) {
	const crash = 1500 * time.Microsecond
	resolved := func(p commitProtocol, mttr time.Duration) time.Duration {
		r := runTrial(p, 3, fixedLink, 5*time.Millisecond, seed,
			chaos.Crash(crash, 1), chaos.Recover(crash+mttr, 1))
		return time.Duration(r.Txns[0].ResolvedMs * float64(time.Millisecond))
	}
	var rows []Tab7Row
	var b strings.Builder
	b.WriteString("T7: resolution time vs coordinator MTTR (virtual ms)\n")
	b.WriteString("  mttr    2PC-done   3PC-done\n")
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, mttr := range mttrs {
		row := Tab7Row{
			MTTR:       mttr,
			TwoPCDone:  resolved(central2PC, mttr),
			ThreePDone: resolved(central3PC, mttr),
		}
		rows = append(rows, row)
		fmt.Fprintf(&b, "  %-7.0f %-10.2f %-10.2f\n", ms(mttr), ms(row.TwoPCDone), ms(row.ThreePDone))
	}
	return rows, b.String()
}

// Tab8Row: contention behavior of the runtime under a skewed workload.
type Tab8Row struct {
	Policy    string
	Clients   int
	Committed int
	Aborted   int
	AbortPct  float64
	PerSecond float64
}

// Tab8Contention drives concurrent clients over a small, Zipf-skewed
// keyspace and compares the two deadlock-handling policies of the store:
// lock-wait timeouts (the paper's "resolution of a deadlock, when a locking
// scheme is adopted" — slow but forgiving) and wait-die (immediate death of
// the younger transaction — deadlock-free, more aborts, no timeout
// latency). Aborted transactions are the unilateral NO votes the commit
// protocols exist to handle.
func Tab8Contention(sites, clients, txnsPerClient int, seed int64) ([]Tab8Row, string) {
	var rows []Tab8Row
	var b strings.Builder
	fmt.Fprintf(&b, "T8: contention (Zipf keys, %d sites, %d clients x %d txns, 3PC)\n",
		sites, clients, txnsPerClient)
	b.WriteString("  policy     committed  aborted  abort%   txn/s\n")
	for _, pol := range []kv.DeadlockPolicy{kv.TimeoutPolicy, kv.WaitDiePolicy} {
		row := runContention(pol, sites, clients, txnsPerClient, seed)
		rows = append(rows, row)
		fmt.Fprintf(&b, "  %-10s %-10d %-8d %-8.1f %-8.0f\n",
			row.Policy, row.Committed, row.Aborted, row.AbortPct, row.PerSecond)
	}
	return rows, b.String()
}

func runContention(pol kv.DeadlockPolicy, sites, clients, txnsPerClient int, seed int64) Tab8Row {
	cluster, err := dtx.NewCluster(sites, dtx.Options{
		Protocol:    engine.ThreePhase,
		Timeout:     250 * time.Millisecond,
		LockTimeout: 20 * time.Millisecond,
		Policy:      pol,
	})
	if err != nil {
		panic(err)
	}
	defer cluster.Stop()

	var committed, aborted atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := workload.NewKV(workload.Config{
				Sites: sites, KeysPerSite: 8, OpsPerTxn: 2,
				Zipf: true, Seed: seed + int64(c),
			})
			for i := 0; i < txnsPerClient; i++ {
				w := gen.Next()
				tx, err := cluster.Begin(w.Coordinator)
				if err != nil {
					aborted.Add(1)
					continue
				}
				failed := false
				for _, op := range w.Ops {
					if op.Read {
						_, err = tx.Get(op.Site, op.Key)
						if err != nil && !strings.Contains(err.Error(), "not found") {
							failed = true
							break
						}
						continue
					}
					if err := tx.Put(op.Site, op.Key, op.Value); err != nil {
						failed = true
						break
					}
				}
				if failed {
					tx.Abort()
					aborted.Add(1)
					continue
				}
				if o, err := tx.Commit(5 * time.Second); err == nil && o == engine.OutcomeCommitted {
					committed.Add(1)
				} else {
					aborted.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := committed.Load() + aborted.Load()
	name := "timeout"
	if pol == kv.WaitDiePolicy {
		name = "wait-die"
	}
	row := Tab8Row{
		Policy: name, Clients: clients,
		Committed: int(committed.Load()), Aborted: int(aborted.Load()),
	}
	if total > 0 {
		row.AbortPct = 100 * float64(aborted.Load()) / float64(total)
	}
	if elapsed > 0 {
		row.PerSecond = float64(total) / elapsed.Seconds()
	}
	return row
}
