package nodeapi

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"nbcommit/internal/dtx"
	"nbcommit/internal/engine"
	"nbcommit/internal/kv"
	"nbcommit/internal/remote"
	"nbcommit/internal/shard"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// node bundles one in-process site with its data plane, as kvnode wires it.
type node struct {
	id     int
	store  *kv.Store
	site   *engine.Site
	client *remote.Client
	server *remote.Server
}

// testCluster builds n nodes over the in-memory network with the oracle
// detector (the node wiring minus TCP and heartbeats), and delivers their
// messages with the network's Serve. Every node holds the deterministic
// default shard map for the cluster.
func testCluster(t *testing.T, n int) map[int]*node {
	t.Helper()
	net := transport.NewSimNetwork()
	ids := make([]int, 0, n)
	for i := 1; i <= n; i++ {
		ids = append(ids, i)
	}
	smap := shard.Default(ids, 4)
	nodes := map[int]*node{}
	for i := 1; i <= n; i++ {
		i := i
		ep := net.Endpoint(i)
		store := kv.NewStore(kv.Options{LockTimeout: 50 * time.Millisecond})
		server := &remote.Server{Store: store, Send: ep.Send, Map: smap}
		client := remote.NewClient(ep.Send, 300*time.Millisecond)
		client.MapVersion = smap.Version
		site, err := engine.New(engine.Config{
			ID:       i,
			Endpoint: ep,
			Log:      wal.NewMemoryLog(),
			Resource: dtx.StoreResource{Store: store},
			Detector: net,
			Protocol: engine.ThreePhase,
			Timeout:  60 * time.Millisecond,
			Unhandled: func(m transport.Message) {
				switch m.Kind {
				case remote.KindOp:
					go server.Handle(m)
				case remote.KindReply:
					client.Deliver(m)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		server.SetSite(site)
		site.Start()
		nodes[i] = &node{id: i, store: store, site: site, client: client, server: server}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		net.Serve(func(m transport.Message) { nodes[m.To].site.Deliver(m) }, stop)
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
		for _, nd := range nodes {
			nd.site.Stop()
		}
	})
	return nodes
}

// waitRead polls a store until key holds want (COMMITTED means the decision
// is durable at the coordinator; participants apply it asynchronously).
func waitRead(t *testing.T, store *kv.Store, key, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := store.Read(key); ok && v == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, ok := store.Read(key)
	t.Fatalf("%s = %q/%v, want %q", key, v, ok, want)
}

// waitGone polls until key disappears from the store.
func waitGone(t *testing.T, store *kv.Store, key string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := store.Read(key); !ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s still present", key)
}

func api(nd *node) *API {
	return &API{
		Self: nd.id, Site: nd.site, Store: nd.store,
		Client: nd.client, Timeout: 60 * time.Millisecond,
		Router: &shard.Router{Map: nd.server.Map},
	}
}

func TestSessionLifecycle(t *testing.T) {
	nodes := testCluster(t, 3)
	s := &Session{api: api(nodes[1]), touched: map[int]bool{}}

	reply := s.Execute("BEGIN")
	if !strings.HasPrefix(reply, "OK tx-1-") {
		t.Fatalf("BEGIN = %q", reply)
	}
	if got := s.Execute("PUT 2 color blue"); got != "OK" {
		t.Fatalf("PUT = %q", got)
	}
	if got := s.Execute("PUT 3 shape round here"); got != "OK" {
		t.Fatalf("PUT multiword = %q", got)
	}
	if got := s.Execute("GET 2 color"); got != "VAL blue" {
		t.Fatalf("GET = %q", got)
	}
	if got := s.Execute("GET 3 shape"); got != "VAL round here" {
		t.Fatalf("GET multiword = %q", got)
	}
	if got := s.Execute("COMMIT"); got != "COMMITTED" {
		t.Fatalf("COMMIT = %q", got)
	}
	// Data becomes durable at the remote stores.
	waitRead(t, nodes[2].store, "color", "blue")
	waitRead(t, nodes[3].store, "shape", "round here")

	// Second transaction on the same session: delete.
	s.Execute("BEGIN")
	if got := s.Execute("DEL 2 color"); got != "OK" {
		t.Fatalf("DEL = %q", got)
	}
	if got := s.Execute("COMMIT"); got != "COMMITTED" {
		t.Fatalf("COMMIT = %q", got)
	}
	waitGone(t, nodes[2].store, "color")
}

func TestSessionErrors(t *testing.T) {
	nodes := testCluster(t, 2)
	s := &Session{api: api(nodes[1]), touched: map[int]bool{}}

	for line, wantPrefix := range map[string]string{
		"":          "ERR empty",
		"NOPE":      "ERR unknown command",
		"PUT 2 k v": "ERR no open transaction",
		"GET 2 k":   "ERR no open transaction",
		"COMMIT":    "ERR no open transaction",
		"ABORT":     "ERR no open transaction",
	} {
		if got := s.Execute(line); !strings.HasPrefix(got, wantPrefix) {
			t.Errorf("%q = %q, want prefix %q", line, got, wantPrefix)
		}
	}
	s.Execute("BEGIN")
	if got := s.Execute("BEGIN"); !strings.HasPrefix(got, "ERR transaction already open") {
		t.Fatalf("double BEGIN = %q", got)
	}
	if got := s.Execute("PUT x k v"); !strings.HasPrefix(got, "ERR bad site") {
		t.Fatalf("bad site = %q", got)
	}
	if got := s.Execute("PUT 2"); !strings.HasPrefix(got, "ERR usage") {
		t.Fatalf("short PUT = %q", got)
	}
	if got := s.Execute("PUT 2 k"); !strings.HasPrefix(got, "ERR usage") {
		t.Fatalf("valueless PUT = %q", got)
	}
	if got := s.Execute("GET 2 missing"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("missing key = %q", got)
	}
	if got := s.Execute("ABORT"); got != "OK" {
		t.Fatalf("ABORT = %q", got)
	}
}

func TestSessionAbortRollsBack(t *testing.T) {
	nodes := testCluster(t, 2)
	s := &Session{api: api(nodes[1]), touched: map[int]bool{}}
	s.Execute("BEGIN")
	s.Execute("PUT 2 k v")
	if got := s.Execute("ABORT"); got != "OK" {
		t.Fatalf("ABORT = %q", got)
	}
	if _, ok := nodes[2].store.Read("k"); ok {
		t.Fatal("aborted write visible")
	}
}

func TestSessionCleanupAbortsOpenTxn(t *testing.T) {
	nodes := testCluster(t, 2)
	s := &Session{api: api(nodes[1]), touched: map[int]bool{}}
	s.Execute("BEGIN")
	s.Execute("PUT 2 k v")
	s.Cleanup() // connection dropped
	if _, ok := nodes[2].store.Read("k"); ok {
		t.Fatal("dangling write after cleanup")
	}
	if p := nodes[2].store.Pending(); len(p) != 0 {
		t.Fatalf("pending transactions after cleanup: %v", p)
	}
}

func TestSessionLockConflictSurfacesAsError(t *testing.T) {
	nodes := testCluster(t, 2)
	s1 := &Session{api: api(nodes[1]), touched: map[int]bool{}}
	s2 := &Session{api: api(nodes[2]), touched: map[int]bool{}}
	s1.Execute("BEGIN")
	if got := s1.Execute("PUT 2 hot v1"); got != "OK" {
		t.Fatalf("s1 PUT = %q", got)
	}
	s2.Execute("BEGIN")
	if got := s2.Execute("PUT 2 hot v2"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("conflicting PUT = %q", got)
	}
	s2.Execute("ABORT")
	if got := s1.Execute("COMMIT"); got != "COMMITTED" {
		t.Fatalf("s1 COMMIT = %q", got)
	}
	waitRead(t, nodes[2].store, "hot", "v1")
}

func TestServeOverRealConnection(t *testing.T) {
	nodes := testCluster(t, 2)
	a := api(nodes[1])
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			a.Serve(conn)
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(line string) string {
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		reply, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(reply)
	}
	if got := send("BEGIN"); !strings.HasPrefix(got, "OK") {
		t.Fatalf("BEGIN = %q", got)
	}
	if got := send("PUT 2 wire works"); got != "OK" {
		t.Fatalf("PUT = %q", got)
	}
	if got := send("COMMIT"); got != "COMMITTED" {
		t.Fatalf("COMMIT = %q", got)
	}
	waitRead(t, nodes[2].store, "wire", "works")
}

// keyOwnedBy finds a key the shard map places at the wanted site.
func keyOwnedBy(t *testing.T, r *shard.Router, owner int, prefix string) string {
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

// TestKeyedSingleShardOneParticipant is the sharding acceptance check: a
// transaction whose keys all live in one shard at a remote site commits with
// a participant set of exactly that one site — the serving node and every
// bystander stay out of the commit entirely and never hear of it.
func TestKeyedSingleShardOneParticipant(t *testing.T) {
	nodes := testCluster(t, 3)
	a := api(nodes[1])
	s := &Session{api: a, touched: map[int]bool{}}

	shard := a.Router.Map.ShardOf(keyOwnedBy(t, a.Router, 2, "solo")).ID
	var keys []string
	for i := 0; len(keys) < 3; i++ {
		if k := fmt.Sprintf("solo-%d", i); a.Router.Map.ShardOf(k).ID == shard {
			keys = append(keys, k) // same shard, not merely same owner site
		}
	}
	reply := s.Execute("BEGIN")
	if !strings.HasPrefix(reply, "OK ") {
		t.Fatalf("BEGIN = %q", reply)
	}
	txid := strings.TrimPrefix(reply, "OK ")
	for _, key := range keys {
		if got := s.Execute("PUTK " + key + " v1"); got != "OK" {
			t.Fatalf("PUTK = %q", got)
		}
	}
	if got := s.Execute("GETK " + keys[0]); got != "VAL v1" {
		t.Fatalf("GETK = %q", got)
	}
	if got := s.Execute("COMMIT"); got != "COMMITTED" {
		t.Fatalf("COMMIT = %q", got)
	}

	if got := nodes[2].site.Participants(txid); len(got) != 1 || got[0] != 2 {
		t.Fatalf("participants at owner = %v, want [2]", got)
	}
	for _, bystander := range []int{1, 3} {
		if got := nodes[bystander].site.Participants(txid); got != nil {
			t.Fatalf("bystander site %d joined the commit: %v", bystander, got)
		}
		if _, err := nodes[bystander].site.Outcome(txid); err == nil {
			t.Fatalf("bystander site %d knows the transaction", bystander)
		}
	}
	for _, key := range keys {
		waitRead(t, nodes[2].store, key, "v1")
	}
}

// TestKeyedCrossShard: keys owned by two sites commit across exactly those
// two sites, with the serving node coordinating when it owns one of them.
func TestKeyedCrossShard(t *testing.T) {
	nodes := testCluster(t, 3)
	a := api(nodes[1])
	s := &Session{api: a, touched: map[int]bool{}}

	kLocal := keyOwnedBy(t, a.Router, 1, "local")
	kRemote := keyOwnedBy(t, a.Router, 3, "remote")
	reply := s.Execute("BEGIN")
	txid := strings.TrimPrefix(reply, "OK ")
	if got := s.Execute("PUTK " + kLocal + " a"); got != "OK" {
		t.Fatalf("PUTK local = %q", got)
	}
	if got := s.Execute("PUTK " + kRemote + " b"); got != "OK" {
		t.Fatalf("PUTK remote = %q", got)
	}
	if got := s.Execute("COMMIT"); got != "COMMITTED" {
		t.Fatalf("COMMIT = %q", got)
	}
	if got := nodes[1].site.Participants(txid); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("participants = %v, want [1 3]", got)
	}
	if got := nodes[2].site.Participants(txid); got != nil {
		t.Fatalf("bystander site 2 joined the commit: %v", got)
	}
	waitRead(t, nodes[1].store, kLocal, "a")
	waitRead(t, nodes[3].store, kRemote, "b")
}

// TestKeyedReadYourWrites: a key committed through one node is readable
// key-addressed through another node, and a DELK there removes it at its
// owner.
func TestKeyedReadYourWrites(t *testing.T) {
	nodes := testCluster(t, 3)
	writer := &Session{api: api(nodes[1]), touched: map[int]bool{}}
	key := keyOwnedBy(t, api(nodes[1]).Router, 3, "ryw")
	writer.Execute("BEGIN")
	if got := writer.Execute("PUTK " + key + " seen"); got != "OK" {
		t.Fatalf("PUTK = %q", got)
	}
	if got := writer.Execute("COMMIT"); got != "COMMITTED" {
		t.Fatalf("COMMIT = %q", got)
	}
	waitRead(t, nodes[3].store, key, "seen")

	reader := &Session{api: api(nodes[2]), touched: map[int]bool{}}
	reader.Execute("BEGIN")
	if got := reader.Execute("GETK " + key); got != "VAL seen" {
		t.Fatalf("GETK via other node = %q", got)
	}
	if got := reader.Execute("DELK " + key); got != "OK" {
		t.Fatalf("DELK = %q", got)
	}
	if got := reader.Execute("COMMIT"); got != "COMMITTED" {
		t.Fatalf("DELK COMMIT = %q", got)
	}
	waitGone(t, nodes[3].store, key)
}

// TestKeyedEmptyCommit: a transaction that touched nothing commits trivially
// without engaging any engine.
func TestKeyedEmptyCommit(t *testing.T) {
	nodes := testCluster(t, 2)
	s := &Session{api: api(nodes[1]), touched: map[int]bool{}}
	reply := s.Execute("BEGIN")
	txid := strings.TrimPrefix(reply, "OK ")
	if got := s.Execute("COMMIT"); got != "COMMITTED" {
		t.Fatalf("empty COMMIT = %q", got)
	}
	for id, nd := range nodes {
		if got := nd.site.Participants(txid); got != nil {
			t.Fatalf("site %d tracked an empty transaction: %v", id, got)
		}
	}
}

// TestKeyedWithoutRouter: the keyed verbs fail cleanly on a node with no
// shard map.
func TestKeyedWithoutRouter(t *testing.T) {
	nodes := testCluster(t, 2)
	a := api(nodes[1])
	a.Router = nil
	s := &Session{api: a, touched: map[int]bool{}}
	s.Execute("BEGIN")
	if got := s.Execute("PUTK k v"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("PUTK without router = %q", got)
	}
	s.Execute("ABORT")
}

// TestKeyedVersionMismatch: a node routing under a stale shard map is
// rejected by the owner site instead of silently misplacing data.
func TestKeyedVersionMismatch(t *testing.T) {
	nodes := testCluster(t, 2)
	a := api(nodes[1])
	nodes[1].client.MapVersion = 99 // stale router
	defer func() { nodes[1].client.MapVersion = a.Router.Map.Version }()
	s := &Session{api: a, touched: map[int]bool{}}
	key := keyOwnedBy(t, a.Router, 2, "stale")
	s.Execute("BEGIN")
	got := s.Execute("PUTK " + key + " v")
	if !strings.HasPrefix(got, "ERR") || !strings.Contains(got, "version mismatch") {
		t.Fatalf("stale-map PUTK = %q, want version mismatch error", got)
	}
	s.Execute("ABORT")
}

// TestKeyedConcurrentMixAudit drives concurrent sessions, spread over every
// node, half of whose transactions PUTK keys at two owner sites, then audits
// the cluster: every transaction ran with exactly the owner sites of its
// keys as its cohort (one site when single-shard), and every owner
// holds each client's last committed value. Client keyspaces are disjoint,
// so each client's record is authoritative for its keys.
func TestKeyedConcurrentMixAudit(t *testing.T) {
	const (
		sites        = 4
		clients      = 8
		txnsEach     = 40
		keysPerOwner = 8
	)
	nodes := testCluster(t, sites)
	router := api(nodes[1]).Router

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
		s := &Session{api: api(nodes[cl%sites+1]), touched: map[int]bool{}}
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cl)))
			pick := func(owner int) string { return buckets[owner][rng.Intn(keysPerOwner)] }
			for i := 0; i < txnsEach; i++ {
				cross := i%2 == 1
				a := 1 + rng.Intn(sites)
				owners := []int{a}
				keys := []string{pick(a), pick(a)}
				if cross {
					b := 1 + rng.Intn(sites-1)
					if b >= a {
						b++
					}
					owners = append(owners, b)
					keys[1] = pick(b)
				}
				sort.Ints(owners)
				val := fmt.Sprintf("v%d-%d", cl, i)
				txid := strings.TrimPrefix(s.Execute("BEGIN"), "OK ")
				ok := true
				for _, k := range keys {
					if got := s.Execute("PUTK " + k + " " + val); got != "OK" {
						ok = false
						break
					}
				}
				if !ok {
					s.Execute("ABORT")
					continue
				}
				got := s.Execute("COMMIT")
				// An abort may come before the first owner heard of the
				// transaction; a commit may not.
				if cohort := nodes[owners[0]].site.Participants(txid); !slices.Equal(cohort, owners) &&
					(got == "COMMITTED" || cohort != nil) {
					lg.errs = append(lg.errs, fmt.Sprintf("%s (cross-shard %v) ended %s with cohort %v, want the owners %v", txid, cross, got, cohort, owners))
				}
				switch got {
				case "COMMITTED":
					lg.commits++
					for _, k := range keys {
						lg.expected[k] = val
						delete(lg.pending, k)
					}
				case "ABORTED":
				default:
					for _, k := range keys {
						lg.pending[k] = true
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
			if !lg.pending[k] {
				waitRead(t, nodes[router.Site(k)].store, k, want)
			}
		}
	}
	if commits == 0 {
		t.Fatal("no transaction committed")
	}
	t.Logf("%d of %d transactions committed", commits, clients*txnsEach)
}
