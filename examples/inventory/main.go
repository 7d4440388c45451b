// Inventory: reservations against four warehouse sites with durable (file
// backed) write-ahead logs. A warehouse crashes after voting YES; the rest
// of the cohort commits anyway (3PC waives the dead site's acknowledgement),
// and the crashed warehouse recovers from its WAL: it replays committed
// history, discovers the in-doubt reservation, asks the cohort, and applies
// the commit — no reservation is lost and no site disagrees.
//
//	go run ./examples/inventory
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"nbcommit/internal/dtx"
	"nbcommit/internal/engine"
	"nbcommit/internal/transport"
)

func main() {
	dir, err := os.MkdirTemp("", "inventory-wal-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cluster, err := dtx.NewCluster(4, dtx.Options{
		Protocol: engine.ThreePhase,
		Timeout:  100 * time.Millisecond,
		Dir:      dir, // real WALs: site<i>.wal survives the crash below
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	// Seed stock levels at each warehouse.
	seed, _ := cluster.Begin(1)
	for site := 1; site <= 4; site++ {
		must(seed.Put(site, "stock:widget", "10"))
	}
	if o, err := seed.Commit(5 * time.Second); err != nil || o != engine.OutcomeCommitted {
		log.Fatalf("seeding: %v %v", o, err)
	}
	fmt.Println("stock seeded: 10 widgets at each of 4 warehouses")

	// Reserve one widget at warehouses 2, 3 and 4 atomically. Warehouse 4
	// will crash right after voting: its PREPARE never arrives.
	cluster.Net.SetDrop(func(m transport.Message) bool {
		return m.To == 4 && m.Kind == engine.KindPrepare
	})
	tx, _ := cluster.Begin(1)
	must(tx.Put(2, "stock:widget", "9"))
	must(tx.Put(3, "stock:widget", "9"))
	must(tx.Put(4, "stock:widget", "9"))
	done := make(chan struct{})
	var outcome engine.Outcome
	go func() {
		defer close(done)
		outcome, _ = tx.Commit(5 * time.Second)
	}()
	waitPhase(cluster, 4, tx.ID, "w")
	fmt.Println("warehouse 4 voted YES — crashing it mid-protocol")
	cluster.Crash(4)
	cluster.Net.SetDrop(nil)
	<-done
	fmt.Printf("cohort decision without warehouse 4: %v\n", outcome)

	fmt.Println("restarting warehouse 4 from its WAL...")
	if err := cluster.Recover(4); err != nil {
		log.Fatal(err)
	}
	o, err := cluster.Node(4).Site.WaitOutcome(tx.ID, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warehouse 4 resolved its in-doubt reservation: %v\n", o)

	for site := 2; site <= 4; site++ {
		v, _ := cluster.Node(site).Store.Read("stock:widget")
		fmt.Printf("  warehouse %d stock: %s\n", site, v)
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
	log.Fatalf("site %d never reached phase %s", site, phase)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
