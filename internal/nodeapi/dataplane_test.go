package nodeapi

import (
	"bufio"
	"net"
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

// fakePeers stands in for the cluster behind node 1's remote.Client. Its
// send function decodes and records every KV-OP, then hands it to a real
// remote.Server over a real store at the addressed peer; the reply comes
// back through Client.Deliver unless the test chooses to lose it.
type fakePeers struct {
	t      *testing.T
	client *remote.Client
	stores map[int]*kv.Store

	mu        sync.Mutex
	sent      []sentOp
	loseReply func(sentOp) bool // the peer runs the operation; its answer never arrives
	lost      map[uint64]bool   // ReqIDs whose replies are to be lost
}

type sentOp struct {
	to  int
	req remote.Request
}

func newFakePeers(t *testing.T, timeout time.Duration) (*fakePeers, *Session) {
	f := &fakePeers{t: t, stores: map[int]*kv.Store{}, lost: map[uint64]bool{}}
	ids := []int{1, 2, 3}
	smap := shard.Default(ids, 4)
	servers := map[int]*remote.Server{}
	for _, id := range ids {
		f.stores[id] = kv.NewStore(kv.Options{LockTimeout: 30 * time.Millisecond})
	}
	f.client = remote.NewClient(func(m transport.Message) error {
		req, err := remote.DecodeRequest(m.Body)
		if err != nil || m.Kind != remote.KindOp || m.TxID != req.TxID {
			t.Errorf("bad KV-OP to site %d: kind %q, txid %q, request %+v, %v", m.To, m.Kind, m.TxID, req, err)
		}
		op := sentOp{m.To, req}
		f.mu.Lock()
		f.sent = append(f.sent, op)
		f.lost[req.ReqID] = f.loseReply != nil && f.loseReply(op)
		f.mu.Unlock()
		m.From = 1
		go servers[m.To].Handle(m)
		return nil
	}, timeout)
	f.client.MapVersion = smap.Version
	for _, id := range ids[1:] {
		servers[id] = &remote.Server{Store: f.stores[id], Map: smap, Send: func(m transport.Message) error {
			rep, err := remote.DecodeReply(m.Body)
			if err != nil || m.Kind != remote.KindReply || m.TxID == "" {
				t.Errorf("bad KV-REPLY: kind %q, txid %q, %v", m.Kind, m.TxID, err)
			}
			f.mu.Lock()
			lose := f.lost[rep.ReqID]
			f.mu.Unlock()
			if !lose {
				f.client.Deliver(m)
			}
			return nil
		}}
	}
	a := &API{Self: 1, Store: f.stores[1], Client: f.client, Timeout: timeout, Router: &shard.Router{Map: smap}}
	return f, &Session{api: a, touched: map[int]bool{}}
}

func (f *fakePeers) ops() []sentOp {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]sentOp(nil), f.sent...)
}

// free fails unless site holds no transaction and key can be locked at once.
func (f *fakePeers) free(site int, key string) {
	f.t.Helper()
	st := f.stores[site]
	if p := st.Pending(); len(p) != 0 {
		f.t.Fatalf("site %d still holds transactions %v", site, p)
	}
	if err := st.Begin("probe"); err != nil {
		f.t.Fatal(err)
	}
	if err := st.Put("probe", key, "x"); err != nil {
		f.t.Fatalf("site %d still holds a lock on %s: %v", site, key, err)
	}
	_ = st.Abort("probe") // never fails
}

// TestEnlistIsTheFirstOperation: a cross-shard transaction sends exactly one
// KV-OP per newly touched peer, the operation itself with Enlist set, and a
// later operation at the same peer carries Enlist=false.
func TestEnlistIsTheFirstOperation(t *testing.T) {
	f, s := newFakePeers(t, time.Second)
	r := s.api.Router
	k1, k2, k3 := keyOwnedBy(t, r, 1, "a"), keyOwnedBy(t, r, 2, "b"), keyOwnedBy(t, r, 3, "c")
	txid := strings.TrimPrefix(s.Execute("BEGIN"), "OK ")
	for _, k := range []string{k1, k2, k3} {
		if got := s.Execute("PUTK " + k + " v"); got != "OK" {
			t.Fatalf("PUTK %s = %q", k, got)
		}
	}
	ops := f.ops()
	if len(ops) != 2 {
		t.Fatalf("3 PUTK, one of them local, sent %d KV-OPs, want 2: %+v", len(ops), ops)
	}
	for i, want := range []sentOp{
		{2, remote.Request{Op: remote.OpPut, Enlist: true, Key: k2}},
		{3, remote.Request{Op: remote.OpPut, Enlist: true, Key: k3}},
	} {
		got := ops[i]
		if got.to != want.to || got.req.Op != want.req.Op || got.req.Enlist != want.req.Enlist ||
			got.req.Key != want.req.Key || got.req.TxID != txid || got.req.Value != "v" {
			t.Errorf("KV-OP %d = to %d %+v, want to %d %+v", i, got.to, got.req, want.to, want.req)
		}
	}
	if p := f.stores[1].Pending(); len(p) != 1 || p[0] != txid {
		t.Errorf("local store pending = %v, want the local Begin to have run", p)
	}

	if got := s.Execute("GETK " + k2); got != "VAL v" {
		t.Fatalf("GETK = %q", got)
	}
	if ops = f.ops(); len(ops) != 3 || ops[2].req.Op != remote.OpGet || ops[2].req.Enlist {
		t.Fatalf("second operation at site 2 = %+v, want one get with Enlist=false", ops[2:])
	}

	if got := s.Execute("ABORT"); got != "OK" {
		t.Fatalf("ABORT = %q", got)
	}
	aborts := map[int]int{}
	for _, op := range f.ops()[3:] {
		if op.req.Op != remote.OpAbort || op.req.Enlist || op.req.TxID != txid {
			t.Errorf("after ABORT: %+v", op)
		}
		aborts[op.to]++
	}
	if len(aborts) != 2 || aborts[2] != 1 || aborts[3] != 1 {
		t.Errorf("aborts per peer = %v, want one each at 2 and 3", aborts)
	}
	f.free(1, k1)
	f.free(2, k2)
	f.free(3, k3)
}

// TestAbortReachesPeerWhoseFirstOperationFailed: the peer began the
// transaction under the folded request even though the operation failed, so
// the session must count it touched and ABORT must clear it.
func TestAbortReachesPeerWhoseFirstOperationFailed(t *testing.T) {
	f, s := newFakePeers(t, time.Second)
	key := keyOwnedBy(t, s.api.Router, 2, "hot")
	peer := f.stores[2]
	if err := peer.Begin("blocker"); err != nil {
		t.Fatal(err)
	}
	if err := peer.Put("blocker", key, "held"); err != nil {
		t.Fatal(err)
	}

	txid := strings.TrimPrefix(s.Execute("BEGIN"), "OK ")
	if got := s.Execute("PUTK " + key + " v"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("PUTK against a held lock = %q", got)
	}
	if !s.touched[2] {
		t.Fatal("peer 2 not touched after its first operation failed")
	}
	if p := peer.Pending(); len(p) != 2 {
		t.Fatalf("peer pending = %v, want the blocker and %s", p, txid)
	}
	if got := s.Execute("ABORT"); got != "OK" {
		t.Fatalf("ABORT = %q", got)
	}
	if last := f.ops()[len(f.ops())-1]; last.to != 2 || last.req.Op != remote.OpAbort {
		t.Fatalf("last KV-OP = %+v, want an abort at site 2", last)
	}
	if err := peer.Abort("blocker"); err != nil {
		t.Fatal(err)
	}
	f.free(2, key)
}

// TestAbortReachesPeerWhoseFirstOperationTimedOut: the peer ran the folded
// begin-and-put and holds the lock, but its reply was lost. Dropping the
// connection (Cleanup) must still send it OpAbort.
func TestAbortReachesPeerWhoseFirstOperationTimedOut(t *testing.T) {
	f, s := newFakePeers(t, 60*time.Millisecond)
	key := keyOwnedBy(t, s.api.Router, 3, "lost")
	f.loseReply = func(op sentOp) bool { return op.req.Enlist }

	s.Execute("BEGIN")
	if got := s.Execute("PUTK " + key + " v"); !strings.Contains(got, remote.ErrTimeout.Error()) {
		t.Fatalf("PUTK with a lost reply = %q, want a timeout", got)
	}
	if !s.touched[3] {
		t.Fatal("peer 3 not touched after its first operation timed out")
	}
	if p := f.stores[3].Pending(); len(p) != 1 {
		t.Fatalf("peer pending = %v, want the transaction the folded request began", p)
	}
	s.Cleanup()
	f.free(3, key)
}

// TestCommitAbortsWhenBeginFails: the node touched itself and two peers,
// but its engine refuses to begin the protocol. No site voted, so COMMIT
// must send OpAbort to every touched peer and release the local locks
// rather than leave them held.
func TestCommitAbortsWhenBeginFails(t *testing.T) {
	f, s := newFakePeers(t, time.Second)
	sn := transport.NewSimNetwork()
	site, err := engine.New(engine.Config{
		ID: 1, Endpoint: sn.Endpoint(1), Log: wal.NewMemoryLog(),
		Resource: dtx.StoreResource{Store: f.stores[1]}, Detector: sn,
		Protocol: engine.ThreePhase, Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	site.Stop() // Begin now fails with engine.ErrStopped
	s.api.Site = site

	r := s.api.Router
	k1, k2, k3 := keyOwnedBy(t, r, 1, "a"), keyOwnedBy(t, r, 2, "b"), keyOwnedBy(t, r, 3, "c")
	txid := strings.TrimPrefix(s.Execute("BEGIN"), "OK ")
	for _, k := range []string{k1, k2, k3} {
		if got := s.Execute("PUTK " + k + " v"); got != "OK" {
			t.Fatalf("PUTK %s = %q", k, got)
		}
	}
	if got := s.Execute("COMMIT"); !strings.Contains(got, engine.ErrStopped.Error()) {
		t.Fatalf("COMMIT on a stopped engine = %q, want %v", got, engine.ErrStopped)
	}
	aborts := map[int]int{}
	for _, op := range f.ops()[2:] {
		if op.req.Op != remote.OpAbort || op.req.TxID != txid {
			t.Errorf("after the failed COMMIT: %+v", op)
		}
		aborts[op.to]++
	}
	if len(aborts) != 2 || aborts[2] != 1 || aborts[3] != 1 {
		t.Errorf("aborts per peer = %v, want one each at 2 and 3", aborts)
	}
	f.free(1, k1)
	f.free(2, k2)
	f.free(3, k3)
}

// TestEnlistRefusedOnKnownTxID: a peer that already holds the txid refuses
// the folded begin; the operation does not run inside the other
// transaction.
func TestEnlistRefusedOnKnownTxID(t *testing.T) {
	f, s := newFakePeers(t, time.Second)
	key := keyOwnedBy(t, s.api.Router, 2, "dup")
	txid := strings.TrimPrefix(s.Execute("BEGIN"), "OK ")
	if err := f.stores[2].Begin(txid); err != nil {
		t.Fatal(err)
	}
	if got := s.Execute("PUTK " + key + " v"); !strings.Contains(got, kv.ErrTxnExists.Error()) {
		t.Fatalf("PUTK on a txid the peer knows = %q, want %v", got, kv.ErrTxnExists)
	}
	if v, err := f.stores[2].Get(txid, key); err == nil {
		t.Fatalf("the refused write was merged into the existing transaction: %q", v)
	}
	s.Execute("ABORT")
}

// TestOversizedLine: a request line over the scanner's 64 KiB limit gets a
// named answer and a count before the session ends, not a silent drop.
func TestOversizedLine(t *testing.T) {
	srv, cli := net.Pipe()
	rejected := make(chan string, 1)
	a := &API{Self: 1, Store: kv.NewStore(kv.Options{}), Rejected: func(reason string) { rejected <- reason }}
	done := make(chan struct{})
	go func() { a.Serve(srv); close(done) }()

	r := bufio.NewReader(cli)
	if _, err := cli.Write([]byte("BEGIN\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "OK ") {
		t.Fatalf("BEGIN = %q, %v", line, err)
	}
	go func() { // ends with an error once the server hangs up mid-line
		_, _ = cli.Write([]byte("PUT 1 k " + strings.Repeat("x", bufio.MaxScanTokenSize) + "\n"))
	}()
	if line, err := r.ReadString('\n'); err != nil || line != "ERR line too long\n" {
		t.Fatalf("oversized line = %q, %v", line, err)
	}
	if reason := <-rejected; reason != "line_too_long" {
		t.Fatalf("rejected reason = %q", reason)
	}
	<-done
	if p := a.Store.Pending(); len(p) != 0 {
		t.Fatalf("the ended session left transactions behind: %v", p)
	}
}
