package remote

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"nbcommit/internal/kv"
	"nbcommit/internal/transport"
)

// wire connects a Client at site 1 with a Server at site 2 over the
// in-memory network, dispatching by message kind as kvnode does.
func wire(t *testing.T) (*Client, *kv.Store, *transport.SimNetwork) {
	t.Helper()
	net := transport.NewSimNetwork()
	e1 := net.Endpoint(1)
	e2 := net.Endpoint(2)
	store := kv.NewStore(kv.Options{LockTimeout: 30 * time.Millisecond})
	srv := &Server{Store: store, Send: e2.Send}
	client := NewClient(e1.Send, 500*time.Millisecond)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		net.Serve(func(m transport.Message) {
			switch {
			case m.To == 2 && m.Kind == KindOp:
				srv.Handle(m)
			case m.To == 1 && m.Kind == KindReply:
				client.Deliver(m)
			}
		}, stop)
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
	})
	return client, store, net
}

func TestCallRoundTrip(t *testing.T) {
	client, store, _ := wire(t)
	// The first operation enlists: begin and put in one round trip.
	if _, err := client.Call(2, Request{TxID: "t1", Op: OpPut, Enlist: true, Key: "k", Value: "v"}); err != nil {
		t.Fatal(err)
	}
	v, err := client.Call(2, Request{TxID: "t1", Op: OpGet, Key: "k"})
	if err != nil || v != "v" {
		t.Fatalf("get = %q, %v", v, err)
	}
	if _, err := client.Call(2, Request{TxID: "t1", Op: OpDelete, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call(2, Request{TxID: "t1", Op: OpGet, Key: "k"}); err == nil ||
		!strings.Contains(err.Error(), "not found") {
		t.Fatalf("get deleted = %v", err)
	}
	if _, err := client.Call(2, Request{TxID: "t1", Op: OpAbort}); err != nil {
		t.Fatal(err)
	}
	if p := store.Pending(); len(p) != 0 {
		t.Fatalf("pending after abort: %v", p)
	}
}

func TestCallErrorsPropagate(t *testing.T) {
	client, _, _ := wire(t)
	// Put without begin: ErrNoTxn surfaces as a string error.
	if _, err := client.Call(2, Request{TxID: "zz", Op: OpPut, Key: "k", Value: "v"}); err == nil ||
		!strings.Contains(err.Error(), "no such transaction") {
		t.Fatalf("err = %v", err)
	}
	if _, err := client.Call(2, Request{TxID: "t", Op: Op(99)}); err == nil ||
		!strings.Contains(err.Error(), "unknown op(99)") {
		t.Fatalf("err = %v", err)
	}
}

// TestEnlistFoldsBegin: Enlist begins the transaction under the operation's
// own request; on a txid the peer already knows it is refused, not merged;
// and a first operation that fails leaves the transaction begun, for the
// caller's OpAbort to clear.
func TestEnlistFoldsBegin(t *testing.T) {
	client, store, _ := wire(t)
	if _, err := client.Call(2, Request{TxID: "t1", Op: OpPut, Enlist: true, Key: "k", Value: "v"}); err != nil {
		t.Fatal(err)
	}
	if p := store.Pending(); len(p) != 1 || p[0] != "t1" {
		t.Fatalf("pending after enlist = %v", p)
	}
	_, err := client.Call(2, Request{TxID: "t1", Op: OpPut, Enlist: true, Key: "k2", Value: "v"})
	if err == nil || !strings.Contains(err.Error(), kv.ErrTxnExists.Error()) {
		t.Fatalf("second enlist = %v, want %v", err, kv.ErrTxnExists)
	}
	if _, err := Apply(store, Request{TxID: "t1", Op: OpGet, Enlist: true, Key: "k"}); !errors.Is(err, kv.ErrTxnExists) {
		t.Fatalf("Apply enlist on a known txid = %v", err)
	}
	// t2's first operation blocks on t1's lock and times out at the store:
	// t2 stays begun, holding nothing, until it is aborted.
	if _, err := client.Call(2, Request{TxID: "t2", Op: OpPut, Enlist: true, Key: "k", Value: "w"}); err == nil {
		t.Fatal("conflicting first operation succeeded")
	}
	if p := store.Pending(); len(p) != 2 {
		t.Fatalf("pending after failed first op = %v, want t1 and t2", p)
	}
	for _, tx := range []string{"t1", "t2"} {
		if _, err := client.Call(2, Request{TxID: tx, Op: OpAbort}); err != nil {
			t.Fatal(err)
		}
	}
	if p := store.Pending(); len(p) != 0 {
		t.Fatalf("pending after aborts: %v", p)
	}
}

func TestCallTimeoutOnDeadPeer(t *testing.T) {
	client, _, net := wire(t)
	client.Timeout = 50 * time.Millisecond
	net.Crash(2)
	_, err := client.Call(2, Request{TxID: "t1", Op: OpPut, Enlist: true, Key: "k"})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	// The pending entry is cleaned up.
	client.mu.Lock()
	n := len(client.pending)
	client.mu.Unlock()
	if n != 0 {
		t.Fatalf("pending leak: %d", n)
	}
}

// TestWaiterReuseAfterTimeout: a reply that arrives after its call timed out
// is dropped, and must not be taken for the answer to a later call that
// reuses the same pooled waiter.
func TestWaiterReuseAfterTimeout(t *testing.T) {
	var sent []transport.Message
	c := NewClient(func(m transport.Message) error { sent = append(sent, m); return nil }, 20*time.Millisecond)
	if _, err := c.Call(2, Request{TxID: "t1", Op: OpGet, Key: "a"}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("unanswered call = %v", err)
	}
	late, err := DecodeRequest(sent[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	c.Deliver(transport.Message{Kind: KindReply, Body: encodeReply(Reply{ReqID: late.ReqID, Value: "stale"})})

	c.Timeout = 2 * time.Second
	c.Send = func(m transport.Message) error {
		req, _ := DecodeRequest(m.Body)
		go c.Deliver(transport.Message{Kind: KindReply, Body: encodeReply(Reply{ReqID: req.ReqID, Value: "fresh"})})
		return nil
	}
	for i := 0; i < 50; i++ { // long enough for any left-over timer fire to land
		if v, err := c.Call(2, Request{TxID: "t2", Op: OpGet, Key: "a"}); err != nil || v != "fresh" {
			t.Fatalf("call %d = %q, %v", i, v, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentCalls drives one client from many goroutines (several
// sessions share a node's client) so -race covers the pooled waiters.
func TestConcurrentCalls(t *testing.T) {
	client, _, _ := wire(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tx := "t" + strings.Repeat("x", g)
			for i := 0; i < 100; i++ {
				val := strings.Repeat("v", i%7+1)
				if _, err := client.Call(2, Request{TxID: tx, Op: OpPut, Enlist: i == 0, Key: tx, Value: val}); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if got, err := client.Call(2, Request{TxID: tx, Op: OpGet, Key: tx}); err != nil || got != val {
					t.Errorf("get = %q, %v, want %q", got, err, val)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
