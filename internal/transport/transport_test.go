package transport

import (
	"fmt"
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

// serve runs Serve over n until the test ends and returns the channel the
// delivered messages arrive on.
func serve(t *testing.T, n *SimNetwork) <-chan Message {
	t.Helper()
	got := make(chan Message, 1024)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.Serve(func(m Message) { got <- m }, stop)
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
	})
	return got
}

// nextMsg waits for the next message Serve delivers.
func nextMsg(t *testing.T, got <-chan Message) Message {
	t.Helper()
	select {
	case m := <-got:
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for message")
	}
	return Message{}
}

// Serve delivers every message in send order, across senders and
// destinations, and a Send wakes it when it sleeps.
func TestNetworkDelivery(t *testing.T) {
	n := NewSimNetwork()
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)
	got := serve(t, n)
	sends := []struct {
		from Endpoint
		m    Message
	}{
		{e1, Message{To: 2, Kind: "PING", TxID: "t"}},
		{e2, Message{To: 1, Kind: "PONG", TxID: "t"}},
		{e1, Message{To: 2, Kind: "PING", TxID: "u"}},
	}
	for _, s := range sends {
		if err := s.from.Send(s.m); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sends {
		m := nextMsg(t, got)
		if m.From != s.from.ID() || m.To != s.m.To || m.Kind != s.m.Kind || m.TxID != s.m.TxID {
			t.Fatalf("got %v, want %v from %d", m, s.m, s.from.ID())
		}
	}
	if sent, _ := n.Stats(); sent != 3 {
		t.Fatalf("sent = %d", sent)
	}
}

func TestNetworkSenderStamped(t *testing.T) {
	n := NewSimNetwork()
	e1 := n.Endpoint(1)
	n.Endpoint(2)
	got := serve(t, n)
	// A forged From is overwritten.
	if err := e1.Send(Message{From: 99, To: 2, Kind: "X"}); err != nil {
		t.Fatal(err)
	}
	if m := nextMsg(t, got); m.From != 1 {
		t.Fatalf("From = %d", m.From)
	}
}

// TestNetworkCrash: a crash purges the messages queued for the site, stops
// delivery to it and is reported once to Watch.
func TestNetworkCrash(t *testing.T) {
	n := NewSimNetwork()
	e1 := n.Endpoint(1)
	n.Endpoint(2)
	n.Endpoint(3)

	var mu sync.Mutex
	var crashed []int
	n.Watch(func(site int) {
		mu.Lock()
		crashed = append(crashed, site)
		mu.Unlock()
	})

	// Queued before the crash, delivered after it: only the message to the
	// survivor may arrive.
	e1.Send(Message{To: 2, Kind: "LOST"})
	e1.Send(Message{To: 3, Kind: "KEPT"})
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
	e1.Send(Message{To: 3, Kind: "LAST"})
	got := serve(t, n)
	for _, want := range []string{"KEPT", "LAST"} {
		if m := nextMsg(t, got); m.To != 3 || m.Kind != want {
			t.Fatalf("got %v, want %s to site 3", m, want)
		}
	}
	if _, dropped := n.Stats(); dropped != 2 {
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

// A crashed site can no longer send, and no endpoint of the network has an
// inbox: Serve or a scheduler delivers.
func TestNetworkCrashedSiteCannotSend(t *testing.T) {
	n := NewSimNetwork()
	n.Endpoint(1)
	e2 := n.Endpoint(2)
	n.Crash(2)
	if err := e2.Send(Message{To: 1}); err != ErrClosed {
		t.Fatalf("send from crashed site: %v", err)
	}
	if e2.Recv() != nil {
		t.Fatal("a SimNetwork endpoint has an inbox")
	}
}

func TestNetworkRestart(t *testing.T) {
	n := NewSimNetwork()
	e1 := n.Endpoint(1)
	n.Endpoint(2)
	got := serve(t, n)
	n.Crash(2)
	e2b := n.Endpoint(2) // restart
	if !n.Alive(2) {
		t.Fatal("site 2 should be alive after restart")
	}
	if err := e1.Send(Message{To: 2, Kind: "HELLO"}); err != nil {
		t.Fatal(err)
	}
	if m := nextMsg(t, got); m.To != 2 || m.Kind != "HELLO" {
		t.Fatalf("got %v", m)
	}
	if err := e2b.Send(Message{To: 1, Kind: "BACK"}); err != nil {
		t.Fatal(err)
	}
	if m := nextMsg(t, got); m.From != 2 || m.Kind != "BACK" {
		t.Fatalf("got %v", m)
	}
}

// TestNetworkPartition: sends across a cut link are lost, a message already
// in flight is held, and the heal flushes it to a sleeping Serve.
func TestNetworkPartition(t *testing.T) {
	n := NewSimNetwork()
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)
	n.Endpoint(3)
	e1.Send(Message{To: 2, Kind: "HELD"})
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
	select { // so only a later send or the heal can wake Serve
	case <-n.wake:
	default:
	}
	got := serve(t, n)
	e1.Send(Message{To: 3, Kind: "OPEN"})
	if m := nextMsg(t, got); m.Kind != "OPEN" {
		t.Fatalf("got %v before the heal", m)
	}
	n.Unblock(2, 1) // order-insensitive
	if m := nextMsg(t, got); m.Kind != "HELD" {
		t.Fatalf("got %v", m)
	}
	if err := e1.Send(Message{To: 2, Kind: "OK"}); err != nil {
		t.Fatal(err)
	}
	if m := nextMsg(t, got); m.Kind != "OK" {
		t.Fatalf("got %v", m)
	}
}

// The drop predicate loses what it matches at send time; clearing it lets
// the same kind through again.
func TestNetworkDropFunc(t *testing.T) {
	n := NewSimNetwork()
	e1 := n.Endpoint(1)
	n.Endpoint(2)
	got := serve(t, n)
	n.SetDrop(func(m Message) bool { return m.Kind == "EVIL" })
	e1.Send(Message{To: 2, Kind: "EVIL"})
	e1.Send(Message{To: 2, Kind: "GOOD"})
	if m := nextMsg(t, got); m.Kind != "GOOD" {
		t.Fatalf("got %v", m)
	}
	if n.droppedCause(SimDropLoss) != 1 {
		t.Fatalf("predicate drops = %d, want 1 under loss", n.droppedCause(SimDropLoss))
	}
	n.SetDrop(nil)
	e1.Send(Message{To: 2, Kind: "EVIL"})
	if m := nextMsg(t, got); m.Kind != "EVIL" {
		t.Fatalf("got %v", m)
	}
}

func TestEndpointClose(t *testing.T) {
	n := NewSimNetwork()
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

// Serve returns once stop is closed, also while it is asleep.
func TestServeStops(t *testing.T) {
	n := NewSimNetwork()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.Serve(func(Message) { t.Error("delivered on an empty network") }, stop)
	}()
	close(stop)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after stop")
	}
}

// Take, which Serve pops with, allocates nothing per message.
func TestServePopAllocs(t *testing.T) {
	n := NewSimNetwork()
	e1 := n.Endpoint(1)
	n.Endpoint(2)
	m := Message{To: 2, Kind: "M"}
	allocs := testing.AllocsPerRun(100, func() {
		e1.Send(m)
		e1.Send(m)
		n.Take(0)
		n.Take(0)
	})
	if allocs != 0 {
		t.Fatalf("send and pop allocate %.1f times per round", allocs)
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

// Concurrent senders all reach Serve, each in its own send order (run under
// -race).
func TestNetworkConcurrentSends(t *testing.T) {
	n := NewSimNetwork()
	eps := make([]Endpoint, 8)
	for i := range eps {
		eps[i] = n.Endpoint(i + 1)
	}
	got := serve(t, n)
	var wg sync.WaitGroup
	const perSender = 100
	for i := range eps {
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for k := 0; k < perSender; k++ {
				ep.Send(Message{To: 1, Kind: "M", TxID: fmt.Sprint(k)})
			}
		}(eps[i])
	}
	next := map[int]int{}
	for i := 0; i < len(eps)*perSender; i++ {
		m := nextMsg(t, got)
		if m.TxID != fmt.Sprint(next[m.From]) {
			t.Fatalf("from %d: got message %s, want %d", m.From, m.TxID, next[m.From])
		}
		next[m.From]++
	}
	wg.Wait()
}
