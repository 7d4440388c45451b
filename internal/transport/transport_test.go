package transport

import (
	"sync"
	"testing"
	"time"
)

func recvOne(t testing.TB, ep Endpoint) Message {
	t.Helper()
	select {
	case m, ok := <-ep.Recv():
		if !ok {
			t.Fatal("endpoint channel closed")
		}
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for message")
	}
	return Message{}
}

func TestNetworkDelivery(t *testing.T) {
	n := NewNetwork()
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)
	if err := e1.Send(Message{To: 2, Kind: "PING", TxID: "t"}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, e2)
	if m.From != 1 || m.Kind != "PING" || m.TxID != "t" {
		t.Fatalf("got %v", m)
	}
	if d, _ := n.Stats(); d != 1 {
		t.Fatalf("delivered = %d", d)
	}
}

func TestNetworkSenderStamped(t *testing.T) {
	n := NewNetwork()
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)
	// A forged From is overwritten.
	if err := e1.Send(Message{From: 99, To: 2, Kind: "X"}); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, e2); m.From != 1 {
		t.Fatalf("From = %d", m.From)
	}
}

// TestNetworkCrash: a crash stops delivery and is reported once to Watch.
func TestNetworkCrash(t *testing.T) {
	n := NewNetwork()
	e1 := n.Endpoint(1)
	n.Endpoint(2)

	var mu sync.Mutex
	var crashed []int
	n.Watch(func(site int) {
		mu.Lock()
		crashed = append(crashed, site)
		mu.Unlock()
	})

	n.Crash(2)
	if n.Alive(2) {
		t.Fatal("site 2 alive after crash")
	}
	if !n.Alive(1) {
		t.Fatal("site 1 should be alive")
	}
	// Sends to a crashed site are dropped, not errors.
	if err := e1.Send(Message{To: 2, Kind: "X"}); err != nil {
		t.Fatal(err)
	}
	if _, dropped := n.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(crashed) != 1 || crashed[0] != 2 {
		t.Fatalf("crash watchers saw %v", crashed)
	}
	// Crashing twice notifies once.
	n.Crash(2)
	if len(crashed) != 1 {
		t.Fatalf("duplicate crash notification: %v", crashed)
	}
}

func TestNetworkCrashClosesInbox(t *testing.T) {
	n := NewNetwork()
	n.Endpoint(1)
	e2 := n.Endpoint(2)
	n.Crash(2)
	select {
	case _, ok := <-e2.Recv():
		if ok {
			t.Fatal("unexpected message")
		}
	case <-time.After(time.Second):
		t.Fatal("inbox not closed on crash")
	}
	if err := e2.Send(Message{To: 1}); err != ErrClosed {
		t.Fatalf("send from crashed site: %v", err)
	}
}

func TestNetworkRestart(t *testing.T) {
	n := NewNetwork()
	e1 := n.Endpoint(1)
	n.Endpoint(2)
	n.Crash(2)
	e2b := n.Endpoint(2) // restart
	if !n.Alive(2) {
		t.Fatal("site 2 should be alive after restart")
	}
	if err := e1.Send(Message{To: 2, Kind: "HELLO"}); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, e2b); m.Kind != "HELLO" {
		t.Fatalf("got %v", m)
	}
}

func TestNetworkPartition(t *testing.T) {
	n := NewNetwork()
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)
	n.Block(1, 2)
	if err := e1.Send(Message{To: 2}); err != nil {
		t.Fatal(err)
	}
	if err := e2.Send(Message{To: 1}); err != nil {
		t.Fatal(err)
	}
	if _, dropped := n.Stats(); dropped != 2 {
		t.Fatalf("dropped = %d", dropped)
	}
	n.Unblock(2, 1) // order-insensitive
	if err := e1.Send(Message{To: 2, Kind: "OK"}); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, e2); m.Kind != "OK" {
		t.Fatalf("got %v", m)
	}
}

func TestNetworkDropFunc(t *testing.T) {
	n := NewNetwork()
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)
	n.SetDropFunc(func(m Message) bool { return m.Kind == "EVIL" })
	e1.Send(Message{To: 2, Kind: "EVIL"})
	e1.Send(Message{To: 2, Kind: "GOOD"})
	if m := recvOne(t, e2); m.Kind != "GOOD" {
		t.Fatalf("got %v", m)
	}
	n.SetDropFunc(nil)
	e1.Send(Message{To: 2, Kind: "EVIL"})
	if m := recvOne(t, e2); m.Kind != "EVIL" {
		t.Fatalf("got %v", m)
	}
}

func TestEndpointClose(t *testing.T) {
	n := NewNetwork()
	e1 := n.Endpoint(1)
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e1.Send(Message{To: 2}); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
	if n.Alive(1) {
		t.Fatal("closed endpoint still alive")
	}
}

func TestMessageString(t *testing.T) {
	m := Message{From: 1, To: 3, Kind: "PREPARE", TxID: "t42"}
	if got := m.String(); got != "PREPARE[1->3 tx=t42]" {
		t.Fatalf("String = %q", got)
	}
}

func TestTCPEndpointRoundTrip(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(2, "127.0.0.1:0", map[int]string{1: a.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(2, b.Addr())

	if err := a.Send(Message{To: 2, Kind: "VOTE-REQ", TxID: "x", Body: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, b)
	if m.From != 1 || m.Kind != "VOTE-REQ" || string(m.Body) != "hi" {
		t.Fatalf("got %+v", m)
	}
	// Reply over b's own dialled connection.
	if err := b.Send(Message{To: 1, Kind: "YES", TxID: "x"}); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, a); m.Kind != "YES" || m.From != 2 {
		t.Fatalf("got %+v", m)
	}
	if a.ID() != 1 || b.ID() != 2 {
		t.Fatal("IDs wrong")
	}
}

func TestTCPSendToUnknownPeer(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(Message{To: 9}); err == nil {
		t.Fatal("send to unknown peer should fail")
	}
}

func TestTCPSendToDeadPeerIsDropped(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", map[int]string{2: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Port 1 refuses connections: crash-stop semantics say drop silently.
	if err := a.Send(Message{To: 2, Kind: "X"}); err != nil {
		t.Fatalf("send to dead peer: %v", err)
	}
}

func TestTCPCloseIsIdempotentAndStopsSends(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(Message{To: 2}); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}

func TestTCPPeerReconnect(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer(2, b.Addr())
	if err := a.Send(Message{To: 2, Kind: "ONE"}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	addr := b.Addr()
	b.Close()

	// First send after the peer dies is lost (broken cached connection or
	// failed dial) ...
	a.Send(Message{To: 2, Kind: "LOST"})
	a.Send(Message{To: 2, Kind: "LOST"})

	// ... then the peer restarts on the same address and delivery resumes.
	b2, err := ListenTCP(2, addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.Send(Message{To: 2, Kind: "BACK"}); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-b2.Recv():
			if m.Kind == "BACK" {
				return
			}
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("delivery did not resume after peer restart")
}

func TestNetworkConcurrentSends(t *testing.T) {
	n := NewNetwork()
	eps := make([]Endpoint, 8)
	for i := range eps {
		eps[i] = n.Endpoint(i + 1)
	}
	var wg sync.WaitGroup
	const perSender = 100
	for i := range eps {
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for k := 0; k < perSender; k++ {
				ep.Send(Message{To: 1, Kind: "M"})
			}
		}(eps[i])
	}
	done := make(chan struct{})
	got := 0
	go func() {
		defer close(done)
		for got < len(eps)*perSender {
			select {
			case <-eps[0].Recv():
				got++
			case <-time.After(2 * time.Second):
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got != len(eps)*perSender {
		t.Fatalf("received %d of %d", got, len(eps)*perSender)
	}
}
