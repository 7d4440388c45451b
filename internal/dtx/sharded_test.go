package dtx

import (
	"fmt"
	"testing"
	"time"

	"nbcommit/internal/engine"
	"nbcommit/internal/shard"
)

// routerFor places keys on a cluster's sites the way nodeapi does: the
// default shard map over the cluster's site list, four shards per site. dtx
// itself is site-addressed; a keyed client resolves each key's owner and
// reads or writes it there.
func routerFor(c *Cluster) *shard.Router {
	return &shard.Router{Map: shard.Default(c.IDs(), 4)}
}

// keyAt finds a key the shard map places at the wanted site.
func keyAt(t *testing.T, r *shard.Router, owner int, prefix string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if r.Site(k) == owner {
			return k
		}
	}
	t.Fatalf("no key owned by site %d", owner)
	return ""
}

// TestKeyedSingleShardParticipantSetOne is the sharding acceptance test: a
// transaction whose keys all live in one shard, each written at its owner,
// commits with a participant set of exactly one site; the other sites never
// hear of it.
func TestKeyedSingleShardParticipantSetOne(t *testing.T) {
	c, err := NewCluster(4, Options{Protocol: engine.ThreePhase})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	r := routerFor(c)

	owner := 3
	tx, err := c.Begin(owner)
	if err != nil {
		t.Fatal(err)
	}
	sh := r.Map.ShardOf(keyAt(t, r, owner, "pin"))
	wrote := 0
	for i := 0; wrote < 3; i++ {
		k := fmt.Sprintf("pin-%d", i)
		if r.Map.ShardOf(k).ID != sh.ID {
			continue // same shard, not merely same owner site
		}
		if err := tx.Put(r.Site(k), k, "v"); err != nil {
			t.Fatal(err)
		}
		wrote++
	}
	if got := tx.Participants(); len(got) != 1 || got[0] != owner {
		t.Fatalf("touched sites = %v, want [%d]", got, owner)
	}
	o, err := tx.Commit(5 * time.Second)
	if err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("commit = %v, %v", o, err)
	}
	if got := c.Node(owner).Site.Participants(tx.ID); len(got) != 1 || got[0] != owner {
		t.Fatalf("engine participant set = %v, want [%d]", got, owner)
	}
	for _, id := range c.IDs() {
		if id == owner {
			continue
		}
		if got := c.Node(id).Site.Participants(tx.ID); got != nil {
			t.Fatalf("bystander site %d joined the commit: %v", id, got)
		}
		if _, err := c.Node(id).Site.Outcome(tx.ID); err == nil {
			t.Fatalf("bystander site %d knows the transaction", id)
		}
	}
}

// TestKeyedCrossShardCohortIsTouchedSet: a transaction writing keys at two
// owner sites commits across exactly those two sites.
func TestKeyedCrossShardCohortIsTouchedSet(t *testing.T) {
	c, err := NewCluster(4, Options{Protocol: engine.ThreePhase})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	r := routerFor(c)

	k2 := keyAt(t, r, 2, "a")
	k4 := keyAt(t, r, 4, "b")
	tx, err := c.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(r.Site(k2), k2, "x"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(r.Site(k4), k4, "y"); err != nil {
		t.Fatal(err)
	}
	o, err := tx.Commit(5 * time.Second)
	if err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("commit = %v, %v", o, err)
	}
	got := c.Node(2).Site.Participants(tx.ID)
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("participants = %v, want [2 4]", got)
	}
	for _, id := range []int{1, 3} {
		if got := c.Node(id).Site.Participants(tx.ID); got != nil {
			t.Fatalf("bystander site %d joined the commit: %v", id, got)
		}
	}
	if v, _ := c.Node(2).Store.Read(k2); v != "x" {
		t.Fatalf("k2 = %q", v)
	}
	if v, _ := c.Node(4).Store.Read(k4); v != "y" {
		t.Fatalf("k4 = %q", v)
	}
}

// TestKeyedReadsRouteToOwner: a committed write is read back at the key's
// owner, a delete there removes it, and a transaction that touches nothing
// beyond its coordinator commits trivially.
func TestKeyedReadsRouteToOwner(t *testing.T) {
	c, err := NewCluster(3, Options{Protocol: engine.TwoPhase})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	owner := routerFor(c).Site("color")

	tx, err := c.Begin(owner)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put(owner, "color", "blue"); err != nil {
		t.Fatal(err)
	}
	if o, err := tx.Commit(5 * time.Second); err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("commit = %v, %v", o, err)
	}

	rd, err := c.Begin(owner)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rd.Get(owner, "color")
	if err != nil || v != "blue" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := rd.Delete(owner, "color"); err != nil {
		t.Fatal(err)
	}
	if o, err := rd.Commit(5 * time.Second); err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("commit = %v, %v", o, err)
	}
	if _, ok := c.Node(owner).Store.Read("color"); ok {
		t.Fatal("deleted key still present at owner")
	}

	empty, err := c.Begin(owner)
	if err != nil {
		t.Fatal(err)
	}
	if o, err := empty.Commit(time.Second); err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("empty commit = %v, %v", o, err)
	}
}

// TestKeyedRoutingAgreesAcrossClusters: two clusters of the same size place
// every key identically — the shard map is a pure function of the site list.
func TestKeyedRoutingAgreesAcrossClusters(t *testing.T) {
	a, err := NewCluster(5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	b, err := NewCluster(5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	ra, rb := routerFor(a), routerFor(b)
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%d", i)
		if ra.Site(k) != rb.Site(k) {
			t.Fatalf("clusters disagree on owner of %q: %d vs %d", k, ra.Site(k), rb.Site(k))
		}
	}
}
