package dtx

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"nbcommit/internal/engine"
	"nbcommit/internal/shard"
)

// keyAt finds a key the cluster's shard map places at the wanted site.
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
// keyed transaction whose keys all live in one shard commits with a
// participant set of exactly one site; the other sites never hear of it.
func TestKeyedSingleShardParticipantSetOne(t *testing.T) {
	c, err := NewCluster(4, Options{Protocol: engine.ThreePhase})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	owner := 3
	tx := c.BeginKeyed()
	sh := c.Router().Map.ShardOf(keyAt(t, c.Router(), owner, "pin"))
	wrote := 0
	for i := 0; wrote < 3; i++ {
		k := fmt.Sprintf("pin-%d", i)
		if c.Router().Map.ShardOf(k).ID != sh.ID {
			continue // same shard, not merely same owner site
		}
		if err := tx.PutK(k, "v"); err != nil {
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

// TestKeyedCrossShardCohortIsTouchedSet: a keyed transaction spanning two
// owner sites commits across exactly those two sites.
func TestKeyedCrossShardCohortIsTouchedSet(t *testing.T) {
	c, err := NewCluster(4, Options{Protocol: engine.ThreePhase})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	k2 := keyAt(t, c.Router(), 2, "a")
	k4 := keyAt(t, c.Router(), 4, "b")
	tx := c.BeginKeyed()
	if err := tx.PutK(k2, "x"); err != nil {
		t.Fatal(err)
	}
	if err := tx.PutK(k4, "y"); err != nil {
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

// TestKeyedReadsRouteToOwner: a committed keyed write is read back through
// the keyed API, and an untouched keyed transaction commits trivially.
func TestKeyedReadsRouteToOwner(t *testing.T) {
	c, err := NewCluster(3, Options{Protocol: engine.TwoPhase})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	tx := c.BeginKeyed()
	if err := tx.PutK("color", "blue"); err != nil {
		t.Fatal(err)
	}
	if o, err := tx.Commit(5 * time.Second); err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("commit = %v, %v", o, err)
	}

	rd := c.BeginKeyed()
	v, err := rd.GetK("color")
	if err != nil || v != "blue" {
		t.Fatalf("GetK = %q, %v", v, err)
	}
	if err := rd.DelK("color"); err != nil {
		t.Fatal(err)
	}
	if o, err := rd.Commit(5 * time.Second); err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("commit = %v, %v", o, err)
	}
	owner := c.Router().Site("color")
	if _, ok := c.Node(owner).Store.Read("color"); ok {
		t.Fatal("deleted key still present at owner")
	}

	empty := c.BeginKeyed()
	if o, err := empty.Commit(time.Second); err != nil || o != engine.OutcomeCommitted {
		t.Fatalf("empty keyed commit = %v, %v", o, err)
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
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%d", i)
		if a.Router().Site(k) != b.Router().Site(k) {
			t.Fatalf("clusters disagree on owner of %q: %d vs %d", k, a.Router().Site(k), b.Router().Site(k))
		}
	}
}

// TestKeyedConcurrentMixAudit drives concurrent keyed clients, half of whose
// transactions span two owner sites, then audits the stores: a single-shard
// transaction enlists exactly one site, and every key whose last commit
// resolved holds that commit's value at its owner. Client keyspaces are
// disjoint, so each client's record is authoritative for its keys.
func TestKeyedConcurrentMixAudit(t *testing.T) {
	const (
		sites        = 4
		clients      = 8
		txnsEach     = 40
		keysPerOwner = 8
	)
	c, err := NewCluster(sites, Options{Protocol: engine.ThreePhase})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	router := c.Router()

	type clientLog struct {
		commits  int
		expected map[string]string // key -> last committed value
		pending  map[string]bool   // keys whose last commit left no outcome
		errs     []string
	}
	logs := make([]*clientLog, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		// Pre-bucket this client's keyspace by owner site, so a transaction
		// can pick single-shard or cross-shard keys directly.
		buckets := map[int][]string{}
		for i, full := 0, 0; full < sites; i++ {
			k := fmt.Sprintf("c%d-k%d", cl, i)
			owner := router.Site(k)
			if len(buckets[owner]) == keysPerOwner {
				continue
			}
			if buckets[owner] = append(buckets[owner], k); len(buckets[owner]) == keysPerOwner {
				full++
			}
		}
		lg := &clientLog{expected: map[string]string{}, pending: map[string]bool{}}
		logs[cl] = lg
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cl)))
			pick := func(owner int) string { return buckets[owner][rng.Intn(keysPerOwner)] }
			for i := 0; i < txnsEach; i++ {
				cross := i%2 == 1
				a := 1 + rng.Intn(sites)
				keys := []string{pick(a), pick(a)}
				if cross {
					b := 1 + rng.Intn(sites-1)
					if b >= a {
						b++
					}
					keys[1] = pick(b)
				}
				val := fmt.Sprintf("v%d-%d", cl, i)
				tx := c.BeginKeyed()
				ok := true
				for _, k := range keys {
					if err := tx.PutK(k, val); err != nil {
						ok = false
						break
					}
				}
				if !ok {
					_ = tx.Abort()
					continue
				}
				if n := len(tx.Participants()); !cross && n != 1 {
					lg.errs = append(lg.errs, fmt.Sprintf("single-shard %s enlisted %d sites", tx.ID, n))
				}
				switch o, err := tx.Commit(10 * time.Second); {
				case err != nil || o == engine.OutcomePending:
					for _, k := range keys {
						lg.pending[k] = true
					}
				case o == engine.OutcomeCommitted:
					lg.commits++
					for _, k := range keys {
						lg.expected[k] = val
						delete(lg.pending, k)
					}
				}
			}
		}(cl)
	}
	wg.Wait()

	commits := 0
	for _, lg := range logs {
		commits += lg.commits
		for _, e := range lg.errs {
			t.Error(e)
		}
		for k, want := range lg.expected {
			if lg.pending[k] {
				continue
			}
			if got, ok := c.Node(router.Site(k)).Store.Read(k); !ok || got != want {
				t.Errorf("key %s at owner %d = %q (present %v), last commit wrote %q", k, router.Site(k), got, ok, want)
			}
		}
	}
	if commits == 0 {
		t.Fatal("no transaction committed")
	}
	t.Logf("%d of %d transactions committed", commits, clients*txnsEach)
}
