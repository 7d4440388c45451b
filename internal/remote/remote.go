// Package remote is the data plane for multi-process deployments: a small
// request/reply layer over the same transport the commit engine uses, with
// which a coordinator node executes reads and writes against the stores of
// its peer nodes before driving the commit protocol.
package remote

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nbcommit/internal/clock"
	"nbcommit/internal/engine"
	"nbcommit/internal/kv"
	"nbcommit/internal/shard"
	"nbcommit/internal/transport"
)

// Message kinds used by the data plane; route them to Server.Handle and
// Client.Deliver from the engine's Unhandled hook.
const (
	KindOp    = "KV-OP"
	KindReply = "KV-REPLY"
)

// Op names a data-plane operation; it is one byte on the wire.
type Op uint8

const (
	OpGet Op = iota + 1
	OpPut
	OpDelete
	OpAbort
	// OpCommit hands coordination of a transaction to the peer: the peer's
	// engine runs the commit protocol over req.Participants and the reply
	// carries the outcome. This is how a node that touched no local data
	// commits a transaction without inflating the cohort with itself — a
	// single-shard transaction engages exactly its owner site.
	OpCommit
	// OpSnapGet is the read-only fast path: a snapshot read against the
	// peer's multi-version store. It needs no transaction, takes no locks
	// and never touches the commit protocol — a single-shard read is this
	// one round trip. SnapTS zero reads at the peer's current stable
	// timestamp (returned in Reply.TS so a session can pin later reads to
	// the same snapshot); nonzero re-reads at a previously returned
	// timestamp.
	OpSnapGet
)

var opNames = [...]string{OpGet: "get", OpPut: "put", OpDelete: "delete", OpAbort: "abort", OpCommit: "commit", OpSnapGet: "snapget"}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Request is one data-plane operation against a peer's store.
type Request struct {
	ReqID uint64
	TxID  string
	Op    Op
	// Enlist makes this the transaction's first operation at the peer: the
	// peer begins TxID and runs Op under the one request, so joining a
	// transaction costs no round trip of its own. A peer that already knows
	// TxID refuses (kv.ErrTxnExists). If the operation then fails, the
	// transaction stays begun at the peer until an OpAbort.
	Enlist bool
	Key    string
	Value  string
	// Participants is the commit cohort for OpCommit.
	Participants []int
	// MapVersion stamps the sender's shard map version; the receiver rejects
	// the request if it routes under a different map. Zero means unsharded.
	MapVersion uint64
	// SnapTS pins an OpSnapGet to a snapshot timestamp returned by an
	// earlier OpSnapGet against the same site. Zero reads at the site's
	// current stable timestamp.
	SnapTS uint64
}

// Reply answers a Request: Value on success, Err otherwise (the wire carries
// one or the other).
type Reply struct {
	ReqID uint64
	Value string
	Err   string
	// TS is the snapshot timestamp an OpSnapGet was served at.
	TS uint64
}

// Server applies data-plane requests to a local store and, for OpCommit,
// drives the local commit engine as the transaction's coordinator.
type Server struct {
	Store *kv.Store
	Send  func(transport.Message) error
	// Paradigm selects central-site (default) or decentralized commitment
	// for forwarded commits, mirroring nodeapi.API.Paradigm.
	Paradigm string
	// CommitWait bounds how long a forwarded commit waits for the engine's
	// decision. Zero means the default budget's CommitWait.
	CommitWait time.Duration
	// Map, when set, rejects requests stamped with a different shard map
	// version: a router holding a stale map must not place data here.
	Map *shard.Map

	site atomic.Pointer[engine.Site]
}

// SetSite installs the local commit engine, enabling OpCommit. It may be
// called after messages start flowing (the engine is typically constructed
// after the server it is wired to); forwarded commits arriving before it
// are refused, not misrouted.
func (s *Server) SetSite(site *engine.Site) { s.site.Store(site) }

// Handle processes one KV-OP message and sends the reply.
func (s *Server) Handle(m transport.Message) {
	req, err := DecodeRequest(m.Body)
	if err != nil {
		return
	}
	var rep Reply
	if err = s.Map.CheckVersion(req.MapVersion); err == nil {
		if req.Op == OpCommit {
			rep.Value, err = s.commit(req)
		} else {
			rep, err = Apply(s.Store, req)
		}
	}
	rep.ReqID = req.ReqID
	if err != nil {
		rep.Err = err.Error()
	}
	_ = s.Send(transport.Message{To: m.From, Kind: KindReply, TxID: req.TxID, Body: encodeReply(rep)})
}

// Apply runs one store operation: everything but OpCommit, which needs an
// engine. With req.Enlist the store begins the transaction first. A node's
// own sessions run their local operations through it too, so a site behaves
// the same whether the transaction's coordinator is a peer or itself.
func Apply(store *kv.Store, req Request) (rep Reply, err error) {
	if req.Enlist {
		if err = store.Begin(req.TxID); err != nil {
			return rep, err
		}
	}
	switch req.Op {
	case OpGet:
		rep.Value, err = store.Get(req.TxID, req.Key)
	case OpPut:
		err = store.Put(req.TxID, req.Key, req.Value)
	case OpDelete:
		err = store.Delete(req.TxID, req.Key)
	case OpAbort:
		err = store.Abort(req.TxID)
	case OpSnapGet:
		if req.SnapTS == 0 {
			rep.Value, rep.TS, err = store.SnapshotGet(req.Key)
		} else {
			rep.TS = req.SnapTS
			rep.Value, err = store.ReadAt(req.SnapTS, req.Key)
		}
	default:
		err = fmt.Errorf("remote: unknown %v", req.Op)
	}
	return rep, err
}

// commit coordinates a forwarded transaction on the local engine and waits
// for the decision. The caller's cohort is used as-is (this site must be in
// it, which holds by construction: commits are forwarded to an owner of a
// touched shard).
func (s *Server) commit(req Request) (string, error) {
	site := s.site.Load()
	if site == nil {
		return "", errors.New("remote: this node does not accept forwarded commits")
	}
	h, err := site.Begin(req.TxID, req.Participants, s.Paradigm == "decentralized")
	if err != nil {
		return "", err
	}
	wait := s.CommitWait
	if wait == 0 {
		wait = clock.NewBudget(0).CommitWait
	}
	o, err := h.Wait(wait)
	if err != nil {
		return "", err
	}
	return o.String(), nil
}

// ErrTimeout is returned when a peer does not answer in time (it may have
// crashed; the caller should abort the transaction).
var ErrTimeout = errors.New("remote: call timed out")

// Client issues data-plane requests and matches replies.
type Client struct {
	Send    func(transport.Message) error
	Timeout time.Duration
	// MapVersion stamps every request with the sender's shard map version
	// (zero: unsharded, never rejected).
	MapVersion uint64
	// Incarnation is the node's start count (wal.Boot). It fills the high
	// bits of every ReqID, so a late reply to a call made before a restart
	// never matches a call made after it.
	Incarnation uint64

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]*waiter
}

// waiter is what one call blocks on: the channel its reply arrives on and
// the timer that bounds the wait. Both are reused from call to call, so a
// round trip allocates its request body and nothing else.
type waiter struct {
	ch    chan Reply // capacity 1: Deliver sends under Client.mu, at most once per call
	timer *time.Timer
}

var waiters = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &waiter{ch: make(chan Reply, 1), timer: t}
}}

// NewClient builds a client with the given send function and per-call
// timeout.
func NewClient(send func(transport.Message) error, timeout time.Duration) *Client {
	return &Client{Send: send, Timeout: timeout, pending: map[uint64]*waiter{}}
}

// Deliver routes a KV-REPLY message to its waiting caller.
func (c *Client) Deliver(m transport.Message) {
	rep, err := DecodeReply(m.Body)
	if err != nil {
		return
	}
	c.mu.Lock()
	if w := c.pending[rep.ReqID]; w != nil {
		delete(c.pending, rep.ReqID)
		w.ch <- rep
	}
	c.mu.Unlock()
}

// Call sends one operation to a peer and waits for the reply's value. It
// fills in ReqID and MapVersion.
func (c *Client) Call(to int, req Request) (string, error) {
	rep, err := c.call(to, req, c.Timeout)
	return rep.Value, err
}

// SnapGet reads key from a peer's store at a consistent snapshot — one RPC,
// no transaction, no commit-protocol traffic. ts zero reads at the peer's
// current stable timestamp; the timestamp actually used is returned, so
// passing it back pins subsequent reads to the same snapshot.
func (c *Client) SnapGet(to int, key string, ts uint64) (string, uint64, error) {
	rep, err := c.call(to, Request{Op: OpSnapGet, Key: key, SnapTS: ts}, c.Timeout)
	return rep.Value, rep.TS, err
}

// Commit forwards coordination of txid to a peer: the peer's engine runs the
// commit protocol over participants and the returned outcome is the peer's
// decision ("committed", "aborted" or "pending"). wait bounds the reply
// wait; it must cover the whole protocol, not one message round, so it is
// separate from the per-operation Timeout.
func (c *Client) Commit(to int, txid string, participants []int, wait time.Duration) (engine.Outcome, error) {
	rep, err := c.call(to, Request{TxID: txid, Op: OpCommit, Participants: participants}, wait)
	if err != nil {
		return engine.OutcomePending, err
	}
	switch rep.Value {
	case engine.OutcomeCommitted.String():
		return engine.OutcomeCommitted, nil
	case engine.OutcomeAborted.String():
		return engine.OutcomeAborted, nil
	default:
		return engine.OutcomePending, nil
	}
}

func (c *Client) call(to int, req Request, timeout time.Duration) (Reply, error) {
	w := waiters.Get().(*waiter)
	c.mu.Lock()
	c.seq++
	req.ReqID = c.Incarnation<<40 | c.seq
	c.pending[req.ReqID] = w
	c.mu.Unlock()
	defer c.release(req.ReqID, w)
	req.MapVersion = c.MapVersion

	if err := c.Send(transport.Message{To: to, Kind: KindOp, TxID: req.TxID, Body: encodeRequest(req)}); err != nil {
		return Reply{}, err
	}
	// Since Go 1.23 a Reset timer delivers no fire left over from the
	// waiter's previous call, so the first fire is this call's timeout.
	w.timer.Reset(timeout)
	select {
	case rep := <-w.ch:
		if rep.Err != "" {
			// The reply is returned alongside the error: OpSnapGet callers
			// need the snapshot timestamp even when the key is not found,
			// so a session pins its snapshot on the first read either way.
			return Reply{ReqID: rep.ReqID, TS: rep.TS}, errors.New(rep.Err)
		}
		return rep, nil
	case <-w.timer.C:
		return Reply{}, fmt.Errorf("%w (site %d, op %v)", ErrTimeout, to, req.Op)
	}
}

// release retires a call's waiter. Once the pending entry is gone no Deliver
// can reach the channel, so after one drain the waiter is safe to hand to
// another call.
func (c *Client) release(id uint64, w *waiter) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
	w.timer.Stop()
	select {
	case <-w.ch:
	default:
	}
	waiters.Put(w)
}
