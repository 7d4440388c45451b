package engine_test

import (
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"nbcommit/internal/engine"
	"nbcommit/internal/transport"
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
func TestChaosMultiCoordinator(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if *chaosSeed != 0 {
		seeds = []int64{*chaosSeed}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Logf("chaos seed %d (replay: go test ./internal/engine -run TestChaosMultiCoordinator -chaos.seed=%d)", seed, seed)
			const (
				nSites = 5
				nTxns  = 24
			)
			c := newCluster(t, engine.ThreePhase, nSites)
			rng := rand.New(rand.NewSource(seed))

			// Lossy network: lose the FIRST copy of ~10% of protocol
			// messages (selected deterministically by message identity);
			// retransmissions get through, as on a real fair-loss link.
			var dropMu sync.Mutex
			droppedOnce := map[string]bool{}
			c.net.SetDropFunc(func(m transport.Message) bool {
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
				dropMu.Lock()
				defer dropMu.Unlock()
				if droppedOnce[key] {
					return false
				}
				droppedOnce[key] = true
				return true
			})

			// Launch transactions from rotating coordinators, mixing the
			// central and decentralized paradigms and sprinkling NO votes.
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
				if i == nTxns/2 {
					// Mid-stream crash of a non-coordinating site.
					c.crash(5)
					crashedSite = 5
				}
			}

			// Let the protocols and termination attempts settle, then heal.
			time.Sleep(150 * time.Millisecond)
			c.net.SetDropFunc(nil)
			c.recoverSite(5)
			time.Sleep(300 * time.Millisecond)

			for _, txid := range txids {
				outcomes := map[engine.Outcome]bool{}
				for _, id := range c.ids {
					// A site that was down when a transaction ran may never
					// have heard of it (its VOTE-REQ was lost with the
					// crash); such a site holds no state to check.
					if _, oerr := c.sites[id].Outcome(txid); oerr != nil &&
						strings.Contains(oerr.Error(), "does not know") {
						continue
					}
					o, err := c.sites[id].WaitOutcome(txid, 10*time.Second)
					if err != nil {
						t.Fatalf("site %d tx %s: %v", id, txid, err)
					}
					if o == engine.OutcomePending {
						t.Fatalf("site %d tx %s still pending", id, txid)
					}
					outcomes[o] = true
				}
				if outcomes[engine.OutcomeCommitted] && outcomes[engine.OutcomeAborted] {
					t.Fatalf("tx %s: mixed outcomes — atomicity violated", txid)
				}
			}
		})
	}
}
