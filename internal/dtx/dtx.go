// Package dtx binds the commit engine to the kv store: an in-process cohort
// of sites in which a transaction reads and writes keys at named sites and
// is then committed atomically with 2PC, 3PC, or Paxos Commit. The examples
// and the experiments run on it; StoreResource, the engine's adapter to a
// kv.Store, is shared with kvnode.
//
// The data plane is direct (the client applies operations to each site's
// store as it executes); the commit protocol is what crosses the network.
// This mirrors the paper's model, where the mechanism distributing the
// transaction is not modelled — only the commit decision is. Key routing
// through a shard map and read-only snapshot transactions are the client
// layer's job, served by nodeapi.
package dtx

import (
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nbcommit/internal/clock"
	"nbcommit/internal/engine"
	"nbcommit/internal/kv"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// StoreResource adapts a kv.Store to the engine's Resource interface.
type StoreResource struct {
	Store *kv.Store
}

// Prepare votes by preparing the staged transaction; the redo image is the
// encoded write set.
func (r StoreResource) Prepare(txid string) ([]byte, error) {
	ops, err := r.Store.Prepare(txid)
	if err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		// No writes at this site: an empty (nil) redo image is the signal
		// the engine's read-only participant optimization keys on.
		return nil, nil
	}
	return kv.EncodeWrites(ops), nil
}

// Commit applies the prepared transaction.
func (r StoreResource) Commit(txid string, _ []byte) error {
	return r.Store.Commit(txid)
}

// Abort discards the transaction.
func (r StoreResource) Abort(txid string) error {
	return r.Store.Abort(txid)
}

// ApplyRedo replays a committed write set during recovery.
func (r StoreResource) ApplyRedo(redo []byte) error {
	ops, err := kv.DecodeWrites(redo)
	if err != nil {
		return err
	}
	r.Store.ApplyRedo(ops)
	return nil
}

// CommitTS and Watermark make StoreResource an engine.VersionedResource, so
// the engine publishes the store's apply progress and in-doubt bound.
func (r StoreResource) CommitTS() uint64 { return r.Store.CommitTS() }

// Watermark reports the store's oldest in-doubt prepare timestamp.
func (r StoreResource) Watermark() uint64 { return r.Store.Watermark() }

// Node is one site: a store, its WAL, and the commit engine.
type Node struct {
	ID    int
	Store *kv.Store
	Site  *engine.Site
	log   wal.Log
}

// Paradigm selects how commitment is coordinated.
type Paradigm int

const (
	// CentralSite uses a coordinator (the transaction's Begin site) and the
	// slave protocol at the other participants.
	CentralSite Paradigm = iota
	// Decentralized has every participant run the same peer protocol with
	// full message interchanges and no coordinator.
	Decentralized
)

// String names the paradigm.
func (p Paradigm) String() string {
	if p == Decentralized {
		return "decentralized"
	}
	return "central-site"
}

// Options configures a Cluster.
type Options struct {
	// Protocol selects the commit protocol family (2PC, 3PC, or Paxos
	// Commit). Default ThreePhase.
	Protocol engine.ProtocolKind
	// Paradigm selects central-site or decentralized commitment. Default
	// CentralSite.
	Paradigm Paradigm
	// Timeout is the engine's protocol timeout, the base of the cluster's
	// clock.Budget. Zero means clock.DefaultBase.
	Timeout time.Duration
	// LockTimeout is each store's lock-wait bound. Zero means the budget's
	// LockWait.
	LockTimeout time.Duration
	// Policy selects the stores' deadlock handling (timeout or wait-die).
	Policy kv.DeadlockPolicy
	// Dir, when set, stores each site's WAL in Dir/site<i>.wal instead of
	// memory. A file-backed WAL fsyncs every batch, as kvnode's does.
	Dir string
}

// Cluster is an in-process set of sites sharing a fault-injectable network.
// Net is also every site's failure detector: it reports exactly its own
// crash state, the paper's reliable failure reporting. One goroutine runs
// Net.Serve, handing each message to its destination's engine.
type Cluster struct {
	Net    *transport.SimNetwork
	opts   Options
	stop   chan struct{}
	served chan struct{}

	mu    sync.Mutex
	nodes map[int]*Node
	ids   []int
	txSeq atomic.Uint64
	once  sync.Once
}

// NewCluster builds and starts sites 1..n.
func NewCluster(n int, opts Options) (*Cluster, error) {
	b := clock.NewBudget(opts.Timeout)
	opts.Timeout = b.Protocol
	if opts.LockTimeout == 0 {
		opts.LockTimeout = b.LockWait
	}
	c := &Cluster{
		Net:    transport.NewSimNetwork(),
		opts:   opts,
		stop:   make(chan struct{}),
		served: make(chan struct{}),
		nodes:  map[int]*Node{},
	}
	go func() {
		defer close(c.served)
		c.Net.Serve(c.deliver, c.stop)
	}()
	for i := 1; i <= n; i++ {
		c.ids = append(c.ids, i)
		if err := c.addNode(i, nil); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

// deliver hands a message to its destination site's engine.
func (c *Cluster) deliver(m transport.Message) {
	if n := c.Node(m.To); n != nil {
		n.Site.Deliver(m)
	}
}

// newLog opens the WAL for a site, reusing prior when restarting.
func (c *Cluster) newLog(id int, prior wal.Log) (wal.Log, error) {
	if prior != nil {
		if m, ok := prior.(*wal.MemoryLog); ok {
			m.Reopen()
			return m, nil
		}
		prior.Close()
	}
	if c.opts.Dir == "" {
		if prior != nil {
			return prior, nil
		}
		return wal.NewMemoryLog(), nil
	}
	fl, err := wal.OpenFileLog(filepath.Join(c.opts.Dir, fmt.Sprintf("site%d.wal", id)), wal.FileLogOptions{})
	if err != nil {
		return nil, err
	}
	return fl, nil
}

// addNode creates (or recovers, when priorLog is non-nil) a node.
func (c *Cluster) addNode(id int, priorLog wal.Log) error {
	log, err := c.newLog(id, priorLog)
	if err != nil {
		return err
	}
	store := kv.NewStore(kv.Options{LockTimeout: c.opts.LockTimeout, Policy: c.opts.Policy})
	cfg := engine.Config{
		ID:       id,
		Endpoint: c.Net.Endpoint(id),
		Log:      log,
		Resource: StoreResource{Store: store},
		Detector: c.Net,
		Protocol: c.opts.Protocol,
		Timeout:  c.opts.Timeout,
	}
	// The node table stays locked until the new site is in it, so deliver
	// waits for a restarting site instead of handing the replies to its
	// recovery queries to the stopped site it replaces.
	c.mu.Lock()
	defer c.mu.Unlock()
	var site *engine.Site
	if priorLog != nil {
		site, err = engine.Recover(cfg)
		if err != nil {
			return err
		}
	} else {
		site, err = engine.New(cfg)
		if err != nil {
			return err
		}
		site.Start()
	}
	c.nodes[id] = &Node{ID: id, Store: store, Site: site, log: log}
	return nil
}

// Node returns the site with the given ID.
func (c *Cluster) Node(id int) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

// IDs returns all site IDs.
func (c *Cluster) IDs() []int { return append([]int(nil), c.ids...) }

// Crash fails a site: the network reports the crash, the engine halts, and
// the store's volatile state is lost (only the WAL survives).
func (c *Cluster) Crash(id int) {
	c.Net.Crash(id)
	if n := c.Node(id); n != nil {
		n.Site.Stop()
	}
}

// Recover restarts a crashed site from its WAL: committed effects are redone
// into a fresh store and in-doubt transactions are resolved by asking the
// cohort.
func (c *Cluster) Recover(id int) error {
	n := c.Node(id)
	if n == nil {
		return fmt.Errorf("dtx: no site %d", id)
	}
	return c.addNode(id, n.log)
}

// Stop shuts the network's delivery loop and every site down.
func (c *Cluster) Stop() {
	c.once.Do(func() { close(c.stop) })
	<-c.served
	c.mu.Lock()
	nodes := make([]*Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		nodes = append(nodes, n)
	}
	c.mu.Unlock()
	for _, n := range nodes {
		n.Site.Stop()
		n.log.Close()
	}
}

// Txn is a client-side distributed transaction. It is not safe for
// concurrent use by multiple goroutines.
type Txn struct {
	ID          string
	c           *Cluster
	coordinator int
	touched     map[int]bool
	wrote       map[int]bool
	finished    bool
}

// Begin starts a distributed transaction coordinated by the given site.
func (c *Cluster) Begin(coordinator int) (*Txn, error) {
	n := c.Node(coordinator)
	if n == nil {
		return nil, fmt.Errorf("dtx: no site %d", coordinator)
	}
	id := fmt.Sprintf("tx-%d-%d", coordinator, c.txSeq.Add(1))
	t := &Txn{ID: id, c: c, coordinator: coordinator, touched: map[int]bool{}, wrote: map[int]bool{}}
	if err := t.enlist(coordinator); err != nil {
		return nil, err
	}
	return t, nil
}

// enlist starts the local transaction at a site on first touch.
func (t *Txn) enlist(site int) error {
	if t.touched[site] {
		return nil
	}
	n := t.c.Node(site)
	if n == nil {
		return fmt.Errorf("dtx: no site %d", site)
	}
	if err := n.Store.Begin(t.ID); err != nil {
		return err
	}
	t.touched[site] = true
	return nil
}

// Get reads a key at a site under the transaction.
func (t *Txn) Get(site int, key string) (string, error) {
	if err := t.enlist(site); err != nil {
		return "", err
	}
	return t.c.Node(site).Store.Get(t.ID, key)
}

// Put writes a key at a site under the transaction.
func (t *Txn) Put(site int, key, value string) error {
	if err := t.enlist(site); err != nil {
		return err
	}
	t.wrote[site] = true
	return t.c.Node(site).Store.Put(t.ID, key, value)
}

// Delete removes a key at a site under the transaction.
func (t *Txn) Delete(site int, key string) error {
	if err := t.enlist(site); err != nil {
		return err
	}
	t.wrote[site] = true
	return t.c.Node(site).Store.Delete(t.ID, key)
}

// Participants returns the sites the transaction has touched, including the
// coordinator, in ascending order.
func (t *Txn) Participants() []int {
	return slices.Sorted(maps.Keys(t.touched))
}

// Commit runs the configured commit protocol across the touched sites,
// waits up to timeout for the coordinator's decision, and then waits (within
// the same budget) for every still-operational participant to apply it, so
// that reads observe the outcome when Commit returns.
func (t *Txn) Commit(timeout time.Duration) (engine.Outcome, error) {
	if t.finished {
		return engine.OutcomePending, fmt.Errorf("dtx: transaction %s already finished", t.ID)
	}
	t.finished = true
	deadline := time.Now().Add(timeout)
	coord := t.c.Node(t.coordinator)
	h, err := coord.Site.Begin(t.ID, t.Participants(), t.c.opts.Paradigm == Decentralized)
	if err != nil {
		return engine.OutcomePending, err
	}
	o, err := h.Wait(timeout)
	if err != nil || o == engine.OutcomePending {
		return o, err
	}
	for site := range t.touched {
		// This drain only exists so the outcome's effects are applied
		// everywhere before Commit returns. A site the transaction never
		// wrote to has no effects — and if it took the read-only vote it
		// has already dropped the transaction, so waiting on it would
		// stall for the full deadline.
		if site == t.coordinator || !t.wrote[site] || !t.c.Net.Alive(site) {
			continue
		}
		if n := t.c.Node(site); n != nil {
			_, _ = n.Site.WaitOutcome(t.ID, time.Until(deadline))
		}
	}
	return o, nil
}

// Abort rolls the transaction back at every touched site without running the
// commit protocol.
func (t *Txn) Abort() error {
	if t.finished {
		return nil
	}
	t.finished = true
	for site := range t.touched {
		if n := t.c.Node(site); n != nil {
			_ = n.Store.Abort(t.ID)
		}
	}
	return nil
}
