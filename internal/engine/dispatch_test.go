package engine

// Messages of kinds the engine does not own (heartbeats, the data plane's
// KV-OP and KV-REPLY) go from the endpoint straight to Config.Unhandled. They
// must never enter a shard's event queue: there they would wait behind
// protocol events, and protocol events behind them.

import (
	"fmt"
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

func dispatchSite(t *testing.T, net *transport.Network, shards int, got *seen) *Site {
	t.Helper()
	s, err := New(Config{
		ID:        2,
		Endpoint:  net.Endpoint(2),
		Log:       wal.NewMemoryLog(),
		Resource:  nopResource{},
		Detector:  deadDetector{self: 2},
		Protocol:  ThreePhase,
		Timeout:   time.Minute,
		Shards:    shards,
		Unhandled: got.handle,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

func TestUnownedKindsBypassBlockedShardLoops(t *testing.T) {
	net := transport.NewNetwork()
	got := &seen{n: map[string]int{}}
	s := dispatchSite(t, net, 2, got)
	peer := net.Endpoint(1)

	// One txid per shard.
	txids := make([]string, len(s.shards))
	for i, sh := range s.shards {
		for n := 0; txids[i] == ""; n++ {
			if id := fmt.Sprintf("tx-%d", n); s.shardFor(id) == sh {
				txids[i] = id
			}
		}
	}

	// Wedge both event loops before they start: each finds one more event
	// queued than a batch holds (ACKs for a transaction nobody began, which
	// a handler drops), takes a full batch, and blocks in the first handler
	// on the shard mutex this test holds. One event stays queued for as long
	// as the loop is wedged.
	const batch = 64 // len of the loop's batch array
	for i, sh := range s.shards {
		sh.mu.Lock()
		for n := 0; n <= batch; n++ {
			sh.events <- event{kind: evMsg, msg: transport.Message{From: 1, To: 2, Kind: KindAck, TxID: txids[i]}}
		}
	}
	locked := true
	unlock := func() {
		if locked {
			locked = false
			for _, sh := range s.shards {
				sh.mu.Unlock()
			}
		}
	}
	defer unlock()
	s.Start()
	for i, sh := range s.shards {
		sh := sh
		waitFor(t, fmt.Sprintf("shard %d to wedge with one event queued", i), func() bool { return len(sh.events) == 1 })
	}

	kinds := []string{"KV-OP", "KV-REPLY", failure.HeartbeatKind}
	for _, id := range txids {
		for _, kind := range kinds {
			if err := peer.Send(transport.Message{To: 2, Kind: kind, TxID: id}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range txids {
		for _, kind := range kinds {
			id, kind := id, kind
			waitFor(t, kind+" for "+id+" to reach Unhandled past a wedged loop", func() bool { return got.count(kind, id) == 1 })
		}
	}
	for i, sh := range s.shards {
		if n := len(sh.events); n != 1 {
			t.Fatalf("shard %d queue holds %d events, want the one left over: an unowned kind was queued", i, n)
		}
	}

	// Released, the loops drain and nothing is delivered a second time.
	unlock()
	for i, sh := range s.shards {
		sh := sh
		waitFor(t, fmt.Sprintf("shard %d to drain", i), func() bool { return len(sh.events) == 0 })
	}
	for _, id := range txids {
		for _, kind := range kinds {
			if n := got.count(kind, id); n != 1 {
				t.Errorf("%s for %s reached Unhandled %d times, want exactly once", kind, id, n)
			}
		}
	}
}

// The single-shard loop reads the endpoint itself, and the deterministic
// injection point is Deliver: both hand an unowned kind to Unhandled exactly
// once and a protocol kind never.
func TestUnownedKindsSingleShard(t *testing.T) {
	net := transport.NewNetwork()
	got := &seen{n: map[string]int{}}
	s := dispatchSite(t, net, 1, got)
	s.Start()
	peer := net.Endpoint(1)
	meta := encodeMeta(TxMeta{Coordinator: 1, Participants: []int{1, 2}})
	for _, m := range []transport.Message{
		{To: 2, Kind: "KV-REPLY", TxID: "t1"},
		{To: 2, Kind: KindVoteReq, TxID: "t1", Body: meta},
		{To: 2, Kind: failure.HeartbeatKind},
	} {
		if err := peer.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the heartbeat", func() bool { return got.count(failure.HeartbeatKind, "") == 1 })
	waitFor(t, "the VOTE-REQ", func() bool { return s.Participants("t1") != nil })
	if n := got.count("KV-REPLY", "t1"); n != 1 {
		t.Errorf("KV-REPLY reached Unhandled %d times, want once", n)
	}
	if n := got.count(KindVoteReq, "t1"); n != 0 {
		t.Errorf("a protocol message reached Unhandled %d times", n)
	}

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
