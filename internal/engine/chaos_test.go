package engine_test

import (
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"nbcommit/internal/engine"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// chaosSeed pins the chaos test to a single seed for reproducing a failure:
//
//	go test ./internal/engine -run TestChaosMultiCoordinator -chaos.seed=7
var chaosSeed = flag.Int64("chaos.seed", 0, "run only this chaos seed (0 = default sweep)")

// TestChaosMultiCoordinator drives many concurrent transactions initiated
// from different coordinators over a lossy network, crashes a site
// mid-stream and recovers it, and then verifies the global invariant: for
// every transaction, no two sites decided differently — and after the dust
// settles every operational site that knows a transaction has resolved it.
// The run is in virtual time, so a seed fixes the whole schedule: it is run
// twice, and both runs must leave the same outcomes and the same WAL at
// every site.
func TestChaosMultiCoordinator(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if *chaosSeed != 0 {
		seeds = []int64{*chaosSeed}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Logf("chaos seed %d (replay: go test ./internal/engine -run TestChaosMultiCoordinator -chaos.seed=%d)", seed, seed)
			outcomes, logs := chaosRun(t, seed)
			again, logsAgain := chaosRun(t, seed)
			if !reflect.DeepEqual(outcomes, again) {
				t.Fatalf("seed %d replayed to different outcomes:\n%v\n%v", seed, outcomes, again)
			}
			if !reflect.DeepEqual(logs, logsAgain) {
				t.Fatalf("seed %d replayed to different WAL records", seed)
			}
		})
	}
}

// chaosRun runs one chaos schedule and returns each site's outcome for every
// transaction it knows, and each site's WAL records.
func chaosRun(t *testing.T, seed int64) (map[int]map[string]engine.Outcome, map[int][]wal.Record) {
	const (
		nSites = 5
		nTxns  = 24
	)
	c := newSimCluster(t, engine.ThreePhase, nSites)
	rng := rand.New(rand.NewSource(seed))

	// Lossy network: lose the FIRST copy of ~10% of protocol messages
	// (selected deterministically by message identity); retransmissions get
	// through, as on a real fair-loss link.
	droppedOnce := map[string]bool{}
	c.drop = func(m transport.Message) bool {
		if m.Kind == engine.KindVoteReq || m.Kind == engine.KindDXact {
			return false // keep the cohort informed of the txn
		}
		h := int64(len(m.Kind)) * 131
		for _, ch := range m.TxID {
			h = h*31 + int64(ch)
		}
		h += int64(m.From*7 + m.To*13)
		if (h+seed)%10 != 0 {
			return false
		}
		key := fmt.Sprintf("%s|%s|%d|%d", m.Kind, m.TxID, m.From, m.To)
		if droppedOnce[key] {
			return false
		}
		droppedOnce[key] = true
		return true
	}

	// Launch transactions from rotating coordinators, mixing the central and
	// decentralized paradigms and sprinkling NO votes. A seeded number of
	// deliveries between two Begins makes the transactions overlap.
	txids := make([]string, 0, nTxns)
	crashedSite := 0
	for i := 0; i < nTxns; i++ {
		txid := fmt.Sprintf("chaos-%d-%d", seed, i)
		txids = append(txids, txid)
		coord := 1 + i%nSites
		if coord == crashedSite {
			coord = 1 // a dead site cannot coordinate
		}
		if rng.Intn(4) == 0 {
			c.res[1+rng.Intn(nSites)].refuse(txid)
		}
		if _, err := c.sites[coord].Begin(txid, c.ids, i%2 == 1); err != nil {
			t.Fatal(err)
		}
		for k := rng.Intn(8); k > 0 && c.net.Pending() > 0; k-- {
			c.step()
		}
		if i == nTxns/2 {
			// Mid-stream crash of a non-coordinating site.
			c.crash(5)
			crashedSite = 5
		}
	}

	// Let the protocols and termination attempts settle, then heal.
	c.run(150 * time.Millisecond)
	c.drop = nil
	c.start(5, true)
	c.run(300 * time.Millisecond)

	outcomes := map[int]map[string]engine.Outcome{}
	for _, txid := range txids {
		seen := map[engine.Outcome]bool{}
		for _, id := range c.ids {
			// A site that was down when a transaction ran may never have
			// heard of it (its VOTE-REQ was lost with the crash); such a
			// site holds no state to check.
			if _, oerr := c.sites[id].Outcome(txid); oerr != nil &&
				strings.Contains(oerr.Error(), "does not know") {
				continue
			}
			o := c.resolved(id, txid) // fails the test if still pending
			seen[o] = true
			if outcomes[id] == nil {
				outcomes[id] = map[string]engine.Outcome{}
			}
			outcomes[id][txid] = o
		}
		if seen[engine.OutcomeCommitted] && seen[engine.OutcomeAborted] {
			t.Fatalf("tx %s: mixed outcomes — atomicity violated", txid)
		}
	}
	logs := map[int][]wal.Record{}
	for _, id := range c.ids {
		recs, err := c.logs[id].Records()
		if err != nil {
			t.Fatal(err)
		}
		logs[id] = recs
	}
	return outcomes, logs
}
