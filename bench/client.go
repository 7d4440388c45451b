package main

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// lineClient speaks internal/nodeapi's protocol: one request line, one reply
// line.
type lineClient struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func dialNode(addr string) (*lineClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &lineClient{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

func (c *lineClient) close() { c.conn.Close() }

// do sends one line and waits for its reply.
func (c *lineClient) do(line string) (string, error) {
	replies, err := c.pipeline([]string{line})
	if err != nil {
		return "", err
	}
	return replies[0], nil
}

// ioTimeout bounds one request or batch. The slowest legitimate reply is a
// COMMIT the node gives up on after 20 protocol timeouts (10 s).
const ioTimeout = 15 * time.Second

// pipeline sends every line before reading any reply. The node answers a
// connection's lines in order, so the replies line up with the requests;
// set-up and the read-back checks use this to skip a round trip per line.
func (c *lineClient) pipeline(lines []string) ([]string, error) {
	if err := c.conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return nil, err
	}
	for _, l := range lines {
		c.w.WriteString(l)
		c.w.WriteByte('\n')
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	out := make([]string, len(lines))
	for i := range out {
		reply, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		out[i] = strings.TrimSpace(reply)
	}
	return out, nil
}

// ackedTxn is a write transaction the cluster acknowledged with COMMITTED.
type ackedTxn struct {
	tag  string
	keys []string
	vals []string
}

// connResult is what one connection measured and learned.
type connResult struct {
	conn      int
	txns      []sample            // whole write transactions, BEGIN sent to COMMITTED read
	reads     []sample            // one-shot SGETK
	verbs     map[string][]sample // per verb: begin, putk, commit, sgetk
	attempted int
	failed    int
	failures  []string   // the first few, for the report
	acked     []ackedTxn // in commit order
}

func (r *connResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf("conn %d: ", r.conn)+fmt.Sprintf(format, args...))
	}
}

// driver is the closed-loop load: conns connections from this process,
// connection i to node i, each running one operation at a time.
type driver struct {
	wl     workload
	ks     *keyspace
	seed   int64
	addrs  []string // client address of node i+1
	conns  int
	tracer *tracer // nil: record no spans
}

// run drives the load until stop is closed and returns each connection's
// result. Sample end times are relative to winStart.
func (d *driver) run(winStart time.Time, stop <-chan struct{}) ([]*connResult, error) {
	clients := make([]*lineClient, d.conns)
	for i := range clients {
		c, err := dialNode(d.addrs[i])
		if err != nil {
			return nil, fmt.Errorf("dial node %d: %w", i+1, err)
		}
		defer c.close()
		clients[i] = c
	}
	results := make([]*connResult, d.conns)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = d.loop(i, clients[i], winStart, stop)
		}(i)
	}
	wg.Wait()
	return results, nil
}

func (d *driver) loop(conn int, c *lineClient, winStart time.Time, stop <-chan struct{}) *connResult {
	res := &connResult{conn: conn, verbs: map[string][]sample{}}
	gen := newGenerator(d.seed, d.ks, d.wl.shape, conn, d.conns)
	node := conn + 1
	tr := d.tracer

	// verb sends one line and records its round trip, as a sample and, when
	// tracing, as a nodeapi span under the operation's root span.
	verb := func(name, line string, root uint64, txid string) (string, error) {
		var id uint64
		var start int64
		if tr != nil {
			id, start = tr.beginVerb(node, name, txid)
		}
		t0 := time.Now()
		reply, err := c.do(line)
		t1 := time.Now()
		if tr != nil {
			tr.rec.add(span{ID: id, Parent: root, Name: "nodeapi." + name, Layer: verbLayer(name), TxID: txid, Node: node, Start: start, End: tr.rec.now()})
		}
		res.verbs[name] = append(res.verbs[name], sample{end: t1.Sub(winStart), lat: t1.Sub(t0)})
		return reply, err
	}

	for {
		select {
		case <-stop:
			return res
		default:
		}
		o := gen.next()
		res.attempted++
		var root uint64
		var rootStart int64
		if tr != nil {
			root, rootStart = tr.rec.newID(), tr.rec.now()
		}
		t0 := time.Now()
		var txid string
		var err error
		if o.read {
			err = d.read(o, verb, root)
		} else {
			txid, err = d.write(o, verb, root)
		}
		t1 := time.Now()
		if tr != nil {
			name := "op.write"
			if o.read {
				name = "op.read"
			}
			tr.rec.add(span{ID: root, Name: name, Layer: layerClient, TxID: txid, Node: node, Start: rootStart, End: tr.rec.now()})
		}
		if err != nil {
			res.fail("%v", err)
			if _, ok := err.(net.Error); ok {
				return res // the connection is gone; the guard reports why
			}
			continue
		}
		s := sample{end: t1.Sub(winStart), lat: t1.Sub(t0)}
		if o.read {
			res.reads = append(res.reads, s)
		} else {
			res.txns = append(res.txns, s)
			res.acked = append(res.acked, ackedTxn{tag: o.tag, keys: o.keys, vals: o.vals})
		}
	}
}

// verbLayer is the layer a client-socket verb span is booked to. What is left
// of the commit verb once its wal, transport and kv children are taken out is
// the engine's; the other verbs are nodeapi's.
func verbLayer(name string) string {
	if name == "commit" {
		return layerEngine
	}
	return layerNodeapi
}

type verbFunc func(name, line string, root uint64, txid string) (string, error)

// read is one SGETK. The value must be well formed and belong to the key; it
// may be older than the newest acknowledged write (a snapshot read lands on
// the owner's stable timestamp), so exact values are checked after the
// window, not here.
func (d *driver) read(o op, verb verbFunc, root uint64) error {
	reply, err := verb("sgetk", "SGETK "+o.keys[0], root, "")
	if err != nil {
		return err
	}
	v, ok := strings.CutPrefix(reply, "VAL ")
	if !ok {
		return fmt.Errorf("SGETK %s: %q", o.keys[0], reply)
	}
	if _, key, ok := splitValue(v); !ok || key != o.keys[0] {
		return fmt.Errorf("SGETK %s: wrong value %q", o.keys[0], v)
	}
	return nil
}

// write is one transaction: BEGIN, a PUTK per key, COMMIT.
func (d *driver) write(o op, verb verbFunc, root uint64) (txid string, err error) {
	reply, err := verb("begin", "BEGIN", root, "")
	if err != nil {
		return "", err
	}
	txid, ok := strings.CutPrefix(reply, "OK ")
	if !ok {
		return "", fmt.Errorf("BEGIN: %q", reply)
	}
	for i, k := range o.keys {
		reply, err := verb("putk", "PUTK "+k+" "+o.vals[i], root, txid)
		if err == nil && reply != "OK" {
			err = fmt.Errorf("PUTK %s in %s: %q", k, txid, reply)
			_, _ = verb("abort", "ABORT", root, txid) // best effort: free the session for the next transaction
		}
		if err != nil {
			return txid, err
		}
	}
	reply, err = verb("commit", "COMMIT", root, txid)
	if err != nil {
		return txid, err
	}
	if reply != "COMMITTED" {
		return txid, fmt.Errorf("COMMIT %s: %q", txid, reply)
	}
	return txid, nil
}
