package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
)

// pipelineBatch is how many lines set-up and the checks send before reading
// replies: large enough to hide the round trips, small enough that neither
// side's socket buffer fills while the other is still writing.
const pipelineBatch = 250

// preload writes every key once, through the node that owns it, in
// transactions of pipelineBatch keys, one connection per node. A preloaded
// value carries the tag preloadTag.
func preload(addrs []string, ks *keyspace, seed int64) error {
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			errs[i] = preloadNode(addr, ks.bySite[i+1], rand.New(rand.NewSource(seed*7919+int64(i))))
		}(i, addr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("preload node %d: %w", i+1, err)
		}
	}
	return nil
}

func preloadNode(addr string, keys []string, rng *rand.Rand) error {
	c, err := dialNode(addr)
	if err != nil {
		return err
	}
	defer c.close()
	for len(keys) > 0 {
		n := min(pipelineBatch, len(keys))
		lines := []string{"BEGIN"}
		for _, k := range keys[:n] {
			lines = append(lines, "PUTK "+k+" "+makeValue(rng, preloadTag, k))
		}
		lines = append(lines, "COMMIT")
		replies, err := c.pipeline(lines)
		if err != nil {
			return err
		}
		for i, r := range replies {
			want := "OK"
			if i == len(replies)-1 {
				want = "COMMITTED"
			}
			if !strings.HasPrefix(r, want) {
				return fmt.Errorf("%s: %q", strings.Fields(lines[i])[0], r)
			}
		}
		keys = keys[n:]
	}
	return nil
}

// expectation is what the cluster must hold once the load has stopped: for
// every key written, the value of the last transaction acknowledged for it.
// Connections write disjoint keys, so "last" is each connection's own order.
type expectation struct {
	last   map[string]*ackedTxn // key to the last acknowledged transaction that wrote it
	val    map[string]string
	writer map[string]int // key to the node its writer was connected to
}

func newExpectation(results []*connResult) *expectation {
	e := &expectation{last: map[string]*ackedTxn{}, val: map[string]string{}, writer: map[string]int{}}
	for _, r := range results {
		for i := range r.acked {
			t := &r.acked[i]
			for j, k := range t.keys {
				e.last[k], e.val[k], e.writer[k] = t, t.vals[j], r.conn+1
			}
		}
	}
	return e
}

// intact lists the acknowledged transactions none of whose keys was written
// again: all their values must still be there, under one tag.
func (e *expectation) intact(results []*connResult) []*ackedTxn {
	var out []*ackedTxn
	for _, r := range results {
		for i := range r.acked {
			t := &r.acked[i]
			whole := true
			for _, k := range t.keys {
				whole = whole && e.last[k] == t
			}
			if whole {
				out = append(out, t)
			}
		}
	}
	return out
}

// readKeys reads plan[node] through node with pipelined SGETK, all nodes in
// parallel, and returns each key's reply line.
func readKeys(addrs []string, plan map[int][]string) (map[string]string, error) {
	var (
		mu   sync.Mutex
		out  = map[string]string{}
		errs = make([]error, len(addrs)+1)
		wg   sync.WaitGroup
	)
	for node, keys := range plan {
		wg.Add(1)
		go func(node int, keys []string) {
			defer wg.Done()
			c, err := dialNode(addrs[node-1])
			if err != nil {
				errs[node] = err
				return
			}
			defer c.close()
			for len(keys) > 0 {
				n := min(pipelineBatch, len(keys))
				lines := make([]string, n)
				for i, k := range keys[:n] {
					lines[i] = "SGETK " + k
				}
				replies, err := c.pipeline(lines)
				if err != nil {
					errs[node] = err
					return
				}
				mu.Lock()
				for i, k := range keys[:n] {
					out[k] = replies[i]
				}
				mu.Unlock()
				keys = keys[n:]
			}
		}(node, keys)
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("read back through node %d: %w", node, err)
		}
	}
	return out, nil
}

// checkReport is the outcome of the correctness checks of one run.
type checkReport struct {
	KeysRead        int      `json:"keys_read"`
	AtomicTxns      int      `json:"atomic_txns_checked"`
	RestartTxns     int      `json:"restart_txns_checked"`
	Misses          []string `json:"misses,omitempty"` // the first few
	missCount       int
	RestartSeconds  float64 `json:"restart_s,omitempty"`
	ReadBackSeconds float64 `json:"read_back_s"`
}

func (c *checkReport) miss(format string, args ...any) {
	c.missCount++
	if len(c.Misses) < 10 {
		c.Misses = append(c.Misses, fmt.Sprintf(format, args...))
	}
}

// readBack reads every key an acknowledged transaction wrote, through a node
// other than the one that took the write (the key's owner if that is another
// node, else the next node round), and compares it with the last acknowledged
// value. Then every intact transaction's keys must carry one tag: a
// cross-shard transaction committed at all of its sites or at none.
func readBack(addrs []string, e *expectation, results []*connResult, ks *keyspace, rep *checkReport) error {
	plan := map[int][]string{}
	for k, w := range e.writer {
		via := ks.owner(k)
		if via == w {
			via = w%numSites + 1
		}
		plan[via] = append(plan[via], k)
	}
	got, err := readKeys(addrs, plan)
	if err != nil {
		return err
	}
	rep.KeysRead = len(got)
	for k, want := range e.val {
		if got[k] != "VAL "+want {
			rep.miss("key %s written by %s: read %q", k, e.last[k].tag, got[k])
		}
	}
	for _, t := range e.intact(results) {
		rep.AtomicTxns++
		for _, k := range t.keys {
			tag, _, _ := splitValue(strings.TrimPrefix(got[k], "VAL "))
			if tag != t.tag {
				rep.miss("transaction %s is not atomic: key %s carries tag %q", t.tag, k, tag)
				break
			}
		}
	}
	return nil
}

// restartSample is how many acknowledged transactions the restart check reads
// back.
const restartSample = 200

// readAfterRestart reads a seeded sample of intact acknowledged transactions
// from a cluster restarted on the same WALs, each key through its owner.
func readAfterRestart(addrs []string, e *expectation, results []*connResult, ks *keyspace, seed int64, rep *checkReport) error {
	txns := e.intact(results)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(txns), func(i, j int) { txns[i], txns[j] = txns[j], txns[i] })
	txns = txns[:min(restartSample, len(txns))]
	plan := map[int][]string{}
	for _, t := range txns {
		for _, k := range t.keys {
			plan[ks.owner(k)] = append(plan[ks.owner(k)], k)
		}
	}
	got, err := readKeys(addrs, plan)
	if err != nil {
		return err
	}
	for _, t := range txns {
		rep.RestartTxns++
		for i, k := range t.keys {
			if got[k] != "VAL "+t.vals[i] {
				rep.miss("after restart: key %s of transaction %s: read %q", k, t.tag, got[k])
			}
		}
	}
	return nil
}
