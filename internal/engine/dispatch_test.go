package engine

// Messages of kinds the engine does not own (heartbeats, the data plane's
// KV-OP and KV-REPLY) go from the endpoint straight to Config.Unhandled. They
// must never enter the site's event queue: there they would wait behind
// protocol events, and protocol events behind them.

import (
	"sync"
	"testing"
	"time"

	"nbcommit/internal/failure"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// seen collects what Unhandled was handed, keyed by kind and txid.
type seen struct {
	mu sync.Mutex
	n  map[string]int
}

func (s *seen) handle(m transport.Message) {
	s.mu.Lock()
	s.n[m.Kind+"/"+m.TxID]++
	s.mu.Unlock()
}

func (s *seen) count(kind, txid string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n[kind+"/"+txid]
}

// chanEndpoint is an endpoint with an inbox the test writes into, for the
// event loop's own endpoint read. Sends go nowhere.
type chanEndpoint struct {
	id    int
	inbox chan transport.Message
}

func (e chanEndpoint) ID() int                        { return e.id }
func (e chanEndpoint) Send(transport.Message) error   { return nil }
func (e chanEndpoint) Recv() <-chan transport.Message { return e.inbox }
func (e chanEndpoint) Close() error                   { return nil }

// The event loop reads the endpoint itself, and the deterministic injection
// point is Deliver: both hand an unowned kind to Unhandled exactly once,
// without queueing it, and a protocol kind never.
func TestUnownedKindsNeverQueued(t *testing.T) {
	// Unbuffered: each send returns once the loop has taken the message,
	// and so has finished with every message before it.
	ep := chanEndpoint{id: 2, inbox: make(chan transport.Message)}
	got := &seen{n: map[string]int{}}
	s, err := New(Config{
		ID:        2,
		Endpoint:  ep,
		Log:       wal.NewMemoryLog(),
		Resource:  nopResource{},
		Detector:  deadDetector{self: 2},
		Protocol:  ThreePhase,
		Timeout:   time.Minute,
		Unhandled: got.handle,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	s.Start()
	meta := encodeMeta(TxMeta{Coordinator: 1, Participants: []int{1, 2}})
	for _, m := range []transport.Message{
		{From: 1, To: 2, Kind: "KV-REPLY", TxID: "t1"},
		{From: 1, To: 2, Kind: KindVoteReq, TxID: "t1", Body: meta},
		{From: 1, To: 2, Kind: failure.HeartbeatKind},
	} {
		ep.inbox <- m
	}
	s.Stop() // the loop finishes the heartbeat before it exits
	if n := got.count(failure.HeartbeatKind, ""); n != 1 {
		t.Errorf("heartbeat reached Unhandled %d times, want once", n)
	}
	if s.Participants("t1") == nil {
		t.Error("the VOTE-REQ read from the endpoint was not handled")
	}
	if n := got.count("KV-REPLY", "t1"); n != 1 {
		t.Errorf("KV-REPLY reached Unhandled %d times, want once", n)
	}
	if n := got.count(KindVoteReq, "t1"); n != 0 {
		t.Errorf("a protocol message reached Unhandled %d times", n)
	}

	net := transport.NewSimNetwork()
	det := &seen{n: map[string]int{}}
	d, err := New(Config{
		ID: 3, Endpoint: net.Endpoint(3), Log: wal.NewMemoryLog(), Resource: nopResource{},
		Detector: deadDetector{self: 3}, Protocol: TwoPhase, Deterministic: true, Unhandled: det.handle,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Stop()
	d.Deliver(transport.Message{From: 1, To: 3, Kind: "KV-OP", TxID: "t2"})
	if n := det.count("KV-OP", "t2"); n != 1 {
		t.Errorf("Deliver handed KV-OP to Unhandled %d times, want once, synchronously", n)
	}
}
