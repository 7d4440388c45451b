package main

import (
	"fmt"
	"math/rand"
	"strings"

	"nbcommit/internal/shard"
)

const (
	numSites      = 3
	shardsPerSite = 4     // kvnode's -shards-per-site default
	keysPerSite   = 10000 // well above the connection count: lock conflicts are not what is measured
	valueLen      = 64
	readShare     = 0.9 // read-mostly: share of operations that are SGETK
	zipfS         = 1.1 // read-mostly: skew of the read keys
)

// shape is what a connection sends; two workloads may share a shape and
// differ only in how the cluster is started.
type shape int

const (
	shapeXShard     shape = iota // BEGIN, one PUTK per site, COMMIT
	shapeSingle                  // BEGIN, two PUTK at the connected node, COMMIT
	shapeReadMostly              // 90 % SGETK over all keys (zipf), 10 % shapeXShard
)

type workload struct {
	name  string
	proto string // kvnode -proto
	shape shape
	why   string
	// full marks the one workload that also pays for the checks that need
	// only one: the SIGKILL-and-restart read-back after the process pass, and
	// the untraced in-process pass trace.overhead_share compares with.
	full bool
}

// workloads, in the order they run. BENCHMARK.json repeats the names and the
// reasons.
var workloads = []workload{
	{"xshard-3pc", "3pc", shapeXShard, "one PUTK per site under 3PC: three rounds, 3/3 forced records, two enlist RPCs, the most messages per commit", true},
	{"xshard-2pc", "2pc", shapeXShard, "the same generated input under 2PC: a 3PC-only gain must leave it unchanged, a wal/transport/remote gain must show in both", false},
	{"single-shard", "3pc", shapeSingle, "two PUTK at the connected node: cohort of one, no transport or remote work, the single-node baseline", false},
	{"read-mostly", "3pc", shapeReadMostly, "90 % zipf SGETK (two thirds remote) beside 10 % cross-shard writes: the read path, reported apart from writers", false},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// siteIDs are the cluster's site IDs, 1..numSites.
func siteIDs() []int {
	ids := make([]int, numSites)
	for i := range ids {
		ids[i] = i + 1
	}
	return ids
}

// keyspace is the seed's key set: perSite keys owned by each site under the
// map every kvnode derives by default, so the driver decides the cohort of
// each transaction by the keys it picks.
type keyspace struct {
	smap   *shard.Map
	bySite map[int][]string
	// all holds every key with the sites interleaved (site 1, 2, 3, 1, ...):
	// the zipf ranks of read-mostly. Rank r is owned by site r%3+1 whatever
	// the seed, so the share of reads that are remote does not move with it.
	all []string
}

func newKeyspace(seed int64, perSite int) *keyspace {
	rng := rand.New(rand.NewSource(seed))
	ks := &keyspace{smap: shard.Default(siteIDs(), shardsPerSite), bySite: map[int][]string{}}
	seen := map[string]bool{}
	for n := 0; n < numSites*perSite; {
		k := fmt.Sprintf("k%012x", rng.Uint64()&0xffffffffffff)
		owner := ks.owner(k)
		if seen[k] || len(ks.bySite[owner]) == perSite {
			continue
		}
		seen[k] = true
		ks.bySite[owner] = append(ks.bySite[owner], k)
		n++
	}
	for i := 0; i < perSite; i++ {
		for _, s := range siteIDs() {
			ks.all = append(ks.all, ks.bySite[s][i])
		}
	}
	return ks
}

// owner is the site that stores key.
func (ks *keyspace) owner(key string) int { return ks.smap.Owner(key) }

const padLetters = "abcdefghijklmnopqrstuvwxyz0123456789"

// makeValue builds a valueLen-byte value "<tag>.<key>.<padding>". The tag
// names the transaction that wrote it (every key of one transaction carries
// the same tag), the key lets a reader tell a value that belongs to another
// key, and the padding comes from the seed. No spaces: the line protocol
// splits on them.
func makeValue(rng *rand.Rand, tag, key string) string {
	var b strings.Builder
	b.Grow(valueLen)
	b.WriteString(tag)
	b.WriteByte('.')
	b.WriteString(key)
	b.WriteByte('.')
	for b.Len() < valueLen {
		b.WriteByte(padLetters[rng.Intn(len(padLetters))])
	}
	return b.String()
}

// splitValue undoes makeValue.
func splitValue(v string) (tag, key string, ok bool) {
	parts := strings.SplitN(v, ".", 3)
	if len(parts) != 3 || len(v) != valueLen {
		return "", "", false
	}
	return parts[0], parts[1], true
}

const preloadTag = "pre"

// op is one generated operation: a one-shot read of keys[0], or a write
// transaction putting vals[i] at keys[i].
type op struct {
	read bool
	tag  string
	keys []string
	vals []string
}

// generator produces one connection's operations from the seed. Connection
// conn of conns writes only the keys whose index is conn modulo conns, so no
// two connections ever write the same key and the last acknowledged write to
// a key is known without looking at the servers. Reads go anywhere.
type generator struct {
	rng         *rand.Rand
	ks          *keyspace
	shape       shape
	conn, conns int
	node        int // site the connection is attached to
	zipf        *rand.Zipf
	seq         int
}

func newGenerator(seed int64, ks *keyspace, sh shape, conn, conns int) *generator {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(conn) + 1))
	g := &generator{rng: rng, ks: ks, shape: sh, conn: conn, conns: conns, node: conn + 1}
	if sh == shapeReadMostly {
		g.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(ks.all)-1))
	}
	return g
}

// ownKey picks one of this connection's keys at site.
func (g *generator) ownKey(site int) string {
	keys := g.ks.bySite[site]
	return keys[g.rng.Intn(len(keys)/g.conns)*g.conns+g.conn]
}

func (g *generator) next() op {
	if g.shape == shapeReadMostly && g.rng.Float64() < readShare {
		return op{read: true, keys: []string{g.ks.all[g.zipf.Uint64()]}}
	}
	g.seq++
	o := op{tag: fmt.Sprintf("c%dn%d", g.conn, g.seq)}
	if g.shape == shapeSingle {
		a := g.ownKey(g.node)
		b := g.ownKey(g.node)
		for b == a {
			b = g.ownKey(g.node)
		}
		o.keys = []string{a, b}
	} else {
		for _, s := range siteIDs() {
			o.keys = append(o.keys, g.ownKey(s))
		}
	}
	for _, k := range o.keys {
		o.vals = append(o.vals, makeValue(g.rng, o.tag, k))
	}
	return o
}
