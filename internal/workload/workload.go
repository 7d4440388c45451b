// Package workload generates the transaction mixes driven through the
// runtime and the simulator by the benchmark harness: uniform and Zipfian
// key selection over partitioned keyspaces, and the bank-transfer workload
// that motivates atomic distributed commitment.
package workload

import (
	"fmt"
	"math/rand"
)

// Op is one read or write in a transaction.
type Op struct {
	Site  int
	Key   string
	Value string // empty for reads
	Read  bool
}

// Txn is a generated transaction: a set of operations plus the coordinator
// chosen to drive its commit.
type Txn struct {
	Coordinator int
	Ops         []Op
}

// Sites returns the distinct sites the transaction touches.
func (t Txn) Sites() []int {
	seen := map[int]bool{}
	var out []int
	for _, op := range t.Ops {
		if !seen[op.Site] {
			seen[op.Site] = true
			out = append(out, op.Site)
		}
	}
	return out
}

// Config parameterizes the generic generator.
type Config struct {
	Sites       int // number of sites (1-based IDs)
	KeysPerSite int // keyspace size at each site
	OpsPerTxn   int // operations per transaction
	ReadFrac    float64
	Zipf        bool    // Zipfian key selection instead of uniform
	ZipfS       float64 // Zipf skew (s > 1); default 1.2
	Seed        int64
}

// KV is the generic key-value workload generator.
type KV struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
	seq  int
}

// NewKV builds a generator; panics on nonsensical configuration.
func NewKV(cfg Config) *KV {
	if cfg.Sites < 1 || cfg.KeysPerSite < 1 || cfg.OpsPerTxn < 1 {
		panic("workload: Sites, KeysPerSite and OpsPerTxn must be positive")
	}
	g := &KV{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.Zipf {
		s := cfg.ZipfS
		if s <= 1 {
			s = 1.2
		}
		g.zipf = rand.NewZipf(g.rng, s, 1, uint64(cfg.KeysPerSite-1))
	}
	return g
}

func (g *KV) key() string {
	if g.zipf != nil {
		return fmt.Sprintf("k%d", g.zipf.Uint64())
	}
	return fmt.Sprintf("k%d", g.rng.Intn(g.cfg.KeysPerSite))
}

// Next returns the next transaction.
func (g *KV) Next() Txn {
	g.seq++
	t := Txn{Coordinator: 1 + g.rng.Intn(g.cfg.Sites)}
	for i := 0; i < g.cfg.OpsPerTxn; i++ {
		op := Op{
			Site: 1 + g.rng.Intn(g.cfg.Sites),
			Key:  g.key(),
			Read: g.rng.Float64() < g.cfg.ReadFrac,
		}
		if !op.Read {
			op.Value = fmt.Sprintf("v%d-%d", g.seq, i)
		}
		t.Ops = append(t.Ops, op)
	}
	return t
}

// Bank generates transfer transactions between accounts spread across
// sites: each transaction debits one account and credits another at a
// different site, the canonical "must be atomic" workload.
type Bank struct {
	sites    int
	accounts int
	rng      *rand.Rand
	seq      int
}

// NewBank builds a bank-transfer generator with `accounts` accounts per
// site.
func NewBank(sites, accounts int, seed int64) *Bank {
	if sites < 2 || accounts < 1 {
		panic("workload: bank needs >=2 sites and >=1 account")
	}
	return &Bank{sites: sites, accounts: accounts, rng: rand.New(rand.NewSource(seed))}
}

// Account formats the key of account i at a site.
func Account(i int) string { return fmt.Sprintf("acct%d", i) }

// Next returns the next transfer: one debit and one credit at distinct sites.
func (b *Bank) Next() Txn {
	b.seq++
	from := 1 + b.rng.Intn(b.sites)
	to := 1 + b.rng.Intn(b.sites-1)
	if to >= from {
		to++
	}
	amount := 1 + b.rng.Intn(100)
	acctFrom := Account(b.rng.Intn(b.accounts))
	acctTo := Account(b.rng.Intn(b.accounts))
	return Txn{
		Coordinator: from,
		Ops: []Op{
			{Site: from, Key: acctFrom, Value: fmt.Sprintf("debit%d-%d", amount, b.seq)},
			{Site: to, Key: acctTo, Value: fmt.Sprintf("credit%d-%d", amount, b.seq)},
		},
	}
}
