package main

import (
	"sync"
	"sync/atomic"

	"nbcommit/internal/engine"
	"nbcommit/internal/failure"
	"nbcommit/internal/remote"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// tracer holds the spans of one traced in-process pass and the lookup tables
// that give a span its parent. Nothing inside internal/ knows about it: spans
// are recorded by the benchmark's wrappers round the calls into each layer,
// and causes are recovered from what those calls already carry (the txid on
// messages and log records) plus the fact that a node serves one benchmark
// connection, so whatever its data plane sends was caused by that
// connection's current verb.
type tracer struct {
	rec *recorder

	// curVerb[node] is the span of the verb the connection attached to node
	// is waiting on.
	curVerb [numSites + 1]atomic.Uint64
	// commitVerb maps a txid to the span of its COMMIT verb: the parent of
	// every protocol message, log append and resource call for that txid.
	commitVerb sync.Map // string to uint64
	// open[node] is the data-plane round trip node's remote.Client is waiting
	// on. A node serves one connection and a session calls its peers one at a
	// time, so there is at most one; overlaps counts the times that did not
	// hold, and a traced pass that saw any is thrown away. (Matching on the
	// exported Request/Reply.ReqID instead means gob-decoding every body three
	// more times, 18 µs each, which cost a sixth of the commit latency the
	// pass is there to explain.)
	open     [numSites + 1]atomic.Pointer[openRPC]
	overlaps atomic.Int64

	mu       sync.Mutex
	inFlight map[wireKey][]openWire // sent, not yet received, oldest first
	sendCall []float64              // µs each Endpoint.Send call took
}

func newTracer() *tracer {
	return &tracer{rec: newRecorder(), inFlight: map[wireKey][]openWire{}}
}

type openRPC struct {
	id    uint64
	start int64
	verb  uint64
	txid  string
}

// wireKey identifies a message well enough to pair its send with its receive:
// TCP keeps the order between two nodes, so equal keys pair first-in
// first-out.
type wireKey struct {
	from, to   int
	kind, txid string
}

type openWire struct {
	start  int64
	parent uint64
}

// beginVerb notes that node's connection is about to send a verb and returns
// the verb's span ID and start time.
func (t *tracer) beginVerb(node int, name, txid string) (uint64, int64) {
	id := t.rec.newID()
	t.curVerb[node].Store(id)
	if name == "commit" {
		t.commitVerb.Store(txid, id)
	}
	return id, t.rec.now()
}

// parentOf is the COMMIT verb span a txid's protocol work belongs to, 0 when
// the txid is not one the benchmark is committing.
func (t *tracer) parentOf(txid string) uint64 {
	if v, ok := t.commitVerb.Load(txid); ok {
		return v.(uint64)
	}
	return 0
}

// tracedInboxSize matches the TCP endpoint's own inbox, so the forwarding hop
// never becomes the narrower queue.
const tracedInboxSize = 1024

// tracedEndpoint wraps a node's transport.Endpoint. A transport span runs
// from the sender's Send call to the moment the receiver's wrapper takes the
// message off the inner Recv channel; both ends are in this process, so one
// clock times it.
type tracedEndpoint struct {
	inner transport.Endpoint
	tr    *tracer
	inbox chan transport.Message
	quit  <-chan struct{} // the node is stopping: nobody reads inbox any more
}

func (e *tracedEndpoint) ID() int                        { return e.inner.ID() }
func (e *tracedEndpoint) Recv() <-chan transport.Message { return e.inbox }
func (e *tracedEndpoint) Close() error                   { return e.inner.Close() }
func (e *tracedEndpoint) Send(m transport.Message) error { return e.send(m, e.tr.parentOf(m.TxID)) }

// send is Send with the causing span given by the caller.
func (e *tracedEndpoint) send(m transport.Message, parent uint64) error {
	if m.Kind == failure.HeartbeatKind {
		return e.inner.Send(m)
	}
	t := e.tr
	k, start := wireKey{e.ID(), m.To, m.Kind, m.TxID}, t.rec.now()
	t.mu.Lock()
	t.inFlight[k] = append(t.inFlight[k], openWire{start, parent}) // before Send: the receiver may win the race
	t.mu.Unlock()
	err := e.inner.Send(m)
	took := float64(t.rec.now()-start) / 1e3
	t.mu.Lock()
	t.sendCall = append(t.sendCall, took)
	t.mu.Unlock()
	return err
}

// forward moves messages from the inner endpoint to the engine, closing the
// transport span of each. It ends when the inner endpoint closes or the
// node stops.
func (e *tracedEndpoint) forward() {
	defer close(e.inbox)
	t := e.tr
	for m := range e.inner.Recv() {
		if m.Kind != failure.HeartbeatKind {
			k, now := wireKey{m.From, e.ID(), m.Kind, m.TxID}, t.rec.now()
			t.mu.Lock()
			q := t.inFlight[k]
			if len(q) > 0 {
				if len(q) == 1 {
					delete(t.inFlight, k)
				} else {
					t.inFlight[k] = q[1:]
				}
			}
			t.mu.Unlock()
			if len(q) > 0 {
				t.rec.add(span{ID: t.rec.newID(), Parent: q[0].parent, Name: "transport.wire", Layer: layerTransport, TxID: m.TxID, Node: m.From, Start: q[0].start, End: now})
			}
		}
		select {
		case e.inbox <- m:
		case <-e.quit:
			return
		}
	}
}

// clientSend is the send function handed to node's remote.Client: it opens a
// remote.rtt span per request, which deliverReply closes.
func (t *tracer) clientSend(node int, ep *tracedEndpoint) func(transport.Message) error {
	return func(m transport.Message) error {
		rpc := &openRPC{id: t.rec.newID(), start: t.rec.now(), verb: t.curVerb[node].Load(), txid: m.TxID}
		if t.open[node].Swap(rpc) != nil {
			t.overlaps.Add(1)
		}
		return ep.send(m, rpc.id)
	}
}

// deliverReply wraps node's remote.Client.Deliver.
func (t *tracer) deliverReply(node int, c *remote.Client) func(transport.Message) {
	return func(m transport.Message) {
		if rpc := t.open[node].Swap(nil); rpc != nil {
			t.rec.add(span{ID: rpc.id, Parent: rpc.verb, Name: "remote.rtt", Layer: layerRemote, TxID: rpc.txid, Node: node, Start: rpc.start, End: t.rec.now()})
		}
		c.Deliver(m)
	}
}

// openID is the span of the round trip node is waiting on, 0 for none.
func (t *tracer) openID(node int) uint64 {
	if rpc := t.open[node].Load(); rpc != nil {
		return rpc.id
	}
	return 0
}

// handleOp wraps node's remote.Server.Handle in a remote.handle span under
// the caller's round trip.
func (t *tracer) handleOp(node int, s *remote.Server) func(transport.Message) {
	return func(m transport.Message) {
		parent, start := t.openID(m.From), t.rec.now()
		s.Handle(m)
		t.rec.add(span{ID: t.rec.newID(), Parent: parent, Name: "remote.handle", Layer: layerRemote, TxID: m.TxID, Node: node, Start: start, End: t.rec.now()})
	}
}

// serverSend is the send function handed to a remote.Server: the reply's
// transport span hangs under the round trip it answers.
func (t *tracer) serverSend(ep *tracedEndpoint) func(transport.Message) error {
	return func(m transport.Message) error { return ep.send(m, t.openID(m.To)) }
}

// tracedLog wraps a node's file log. A wal span runs from the moment a forced
// record is staged to the moment its durability callback fires: what the
// engine waits for. Lazy records force nothing and get no span.
type tracedLog struct {
	inner *wal.FileLog
	tr    *tracer
	node  int
}

func (l *tracedLog) span(txid string, start int64) {
	t := l.tr
	t.rec.add(span{ID: t.rec.newID(), Parent: t.parentOf(txid), Name: "wal.append_wait", Layer: layerWAL, TxID: txid, Node: l.node, Start: start, End: t.rec.now()})
}

func (l *tracedLog) Append(rec wal.Record) (uint64, error) {
	start := l.tr.rec.now()
	lsn, err := l.inner.Append(rec)
	l.span(rec.TxID, start)
	return lsn, err
}

func (l *tracedLog) AppendStaged(rec wal.Record, fn func(lsn uint64, err error)) {
	start := l.tr.rec.now()
	l.inner.AppendStaged(rec, func(lsn uint64, err error) {
		l.span(rec.TxID, start)
		fn(lsn, err)
	})
}

func (l *tracedLog) AppendLazy(rec wal.Record) error { return l.inner.AppendLazy(rec) }
func (l *tracedLog) Records() ([]wal.Record, error)  { return l.inner.Records() }
func (l *tracedLog) Close() error                    { return l.inner.Close() }

// tracedResource wraps the engine's view of the store (dtx.StoreResource):
// kv spans for prepare and commit. It stays a VersionedResource, so the
// engine publishes the same gauges as in kvnode.
type tracedResource struct {
	inner engine.VersionedResource
	tr    *tracer
	node  int
}

func (r *tracedResource) span(name, txid string, start int64) {
	t := r.tr
	t.rec.add(span{ID: t.rec.newID(), Parent: t.parentOf(txid), Name: name, Layer: layerKV, TxID: txid, Node: r.node, Start: start, End: t.rec.now()})
}

func (r *tracedResource) Prepare(txid string) ([]byte, error) {
	start := r.tr.rec.now()
	redo, err := r.inner.Prepare(txid)
	r.span("kv.prepare", txid, start)
	return redo, err
}

func (r *tracedResource) Commit(txid string, redo []byte) error {
	start := r.tr.rec.now()
	err := r.inner.Commit(txid, redo)
	r.span("kv.commit", txid, start)
	return err
}

func (r *tracedResource) Abort(txid string) error {
	start := r.tr.rec.now()
	err := r.inner.Abort(txid)
	r.span("kv.abort", txid, start)
	return err
}

func (r *tracedResource) ApplyRedo(redo []byte) error { return r.inner.ApplyRedo(redo) }
func (r *tracedResource) CommitTS() uint64            { return r.inner.CommitTS() }
func (r *tracedResource) Watermark() uint64           { return r.inner.Watermark() }
