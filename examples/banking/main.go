// Banking: the paper's motivating failure, end to end. A bank transfer is
// in flight when the coordinator crashes after collecting the votes.
//
// Under two-phase commit the surviving branches are stuck in the
// uncertainty window: they voted YES and cannot learn the outcome until the
// coordinator recovers — accounts stay locked, the branch is blocked.
//
// Under three-phase commit the survivors elect a backup coordinator and run
// the paper's termination protocol: the transaction terminates at every
// operational site and business continues.
//
//	go run ./examples/banking
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"nbcommit/internal/dtx"
	"nbcommit/internal/engine"
	"nbcommit/internal/transport"
)

const sites = 4

func main() {
	fmt.Println("=== 2PC: coordinator crash blocks the survivors ===")
	runScenario(engine.TwoPhase)
	fmt.Println()
	fmt.Println("=== 3PC: survivors terminate via the backup coordinator ===")
	runScenario(engine.ThreePhase)
}

func runScenario(kind engine.ProtocolKind) {
	cluster, err := dtx.NewCluster(sites, dtx.Options{
		Protocol: kind,
		Timeout:  100 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	seedAccounts(cluster)

	// Swallow the coordinator's outgoing decision so the crash happens
	// inside the uncertainty window, then transfer $50 from branch 2 to
	// branch 3, coordinated by site 1.
	cluster.Net.SetDrop(func(m transport.Message) bool {
		return m.From == 1 && (m.Kind == engine.KindCommit ||
			m.Kind == engine.KindAbort || m.Kind == engine.KindPrepare)
	})
	tx, err := cluster.Begin(1)
	if err != nil {
		log.Fatal(err)
	}
	must(tx.Put(2, "acct:alice", "50")) // was 100
	must(tx.Put(3, "acct:bob", "250"))  // was 200
	go tx.Commit(50 * time.Millisecond) // decision messages are swallowed
	waitPhase(cluster, 2, tx.ID, "w")   // both branches voted YES...
	waitPhase(cluster, 3, tx.ID, "w")   // ...and are now uncertain
	fmt.Printf("branches voted YES on %s; crashing the coordinator now\n", tx.ID)
	cluster.Crash(1)
	cluster.Net.SetDrop(nil)

	// What do the surviving branches do?
	deadline := time.Now().Add(3 * time.Second)
	for _, site := range []int{2, 3} {
		report(cluster, site, tx.ID, deadline)
	}

	if kind == engine.TwoPhase {
		fmt.Println("recovering the coordinator to release the branches...")
		if err := cluster.Recover(1); err != nil {
			log.Fatal(err)
		}
		for _, site := range []int{2, 3} {
			o, err := cluster.Node(site).Site.WaitOutcome(tx.ID, 5*time.Second)
			fmt.Printf("  site %d after coordinator recovery: %v (err=%v)\n", site, o, err)
		}
	}
	for _, site := range []int{2, 3} {
		a, _ := cluster.Node(site).Store.Read("acct:alice")
		b, _ := cluster.Node(site).Store.Read("acct:bob")
		fmt.Printf("  site %d accounts: alice=%q bob=%q\n", site, a, b)
	}
}

func report(cluster *dtx.Cluster, site int, txid string, deadline time.Time) {
	for time.Now().Before(deadline) {
		o, err := cluster.Node(site).Site.Outcome(txid)
		if errors.Is(err, engine.ErrBlocked) {
			fmt.Printf("  site %d: BLOCKED — %v\n", site, err)
			return
		}
		if o != engine.OutcomePending {
			fmt.Printf("  site %d: %v (terminated without the coordinator)\n", site, o)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("  site %d: still pending\n", site)
}

func seedAccounts(cluster *dtx.Cluster) {
	tx, err := cluster.Begin(2)
	if err != nil {
		log.Fatal(err)
	}
	must(tx.Put(2, "acct:alice", "100"))
	must(tx.Put(3, "acct:bob", "200"))
	if o, err := tx.Commit(5 * time.Second); err != nil || o != engine.OutcomeCommitted {
		log.Fatalf("seeding failed: %v %v", o, err)
	}
}

func waitPhase(cluster *dtx.Cluster, site int, txid, phase string) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cluster.Node(site).Site.Phase(txid) == phase {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	log.Fatalf("site %d never reached phase %s for %s", site, phase, txid)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
