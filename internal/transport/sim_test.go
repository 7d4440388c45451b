package transport

import "testing"

func TestSimNetworkCaptureAndTake(t *testing.T) {
	n := NewSimNetwork()
	e1 := n.Endpoint(1)
	n.Endpoint(2)

	if err := e1.Send(Message{To: 2, Kind: "A", TxID: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := e1.Send(Message{To: 2, Kind: "B", TxID: "t"}); err != nil {
		t.Fatal(err)
	}
	if n.Pending() != 2 {
		t.Fatalf("pending = %d", n.Pending())
	}
	if m, ok := n.peek(1); !ok || m.Kind != "B" {
		t.Fatalf("peek = %v, %v", m, ok)
	}
	m, ok := n.Take(0)
	if !ok || m.Kind != "A" || m.From != 1 || m.To != 2 {
		t.Fatalf("take = %v, %v", m, ok)
	}
	if n.Pending() != 1 {
		t.Fatalf("pending after take = %d", n.Pending())
	}
	if _, ok := n.Take(5); ok {
		t.Fatal("out-of-range take succeeded")
	}
}

func TestSimNetworkCrashSemantics(t *testing.T) {
	n := NewSimNetwork()
	e1 := n.Endpoint(1)
	e2 := n.Endpoint(2)
	n.Endpoint(3)

	var crashes []int
	n.Watch(func(site int) { crashes = append(crashes, site) })

	e1.Send(Message{To: 2, Kind: "TO-VICTIM"})
	e2.Send(Message{To: 3, Kind: "FROM-VICTIM"})

	// Silence stops new traffic both ways but reports nothing.
	n.Silence(2)
	if n.Alive(2) {
		t.Fatal("silenced site still alive")
	}
	if err := e2.Send(Message{To: 3, Kind: "late"}); err != ErrClosed {
		t.Fatalf("send from silenced site: %v", err)
	}
	e1.Send(Message{To: 2, Kind: "lost"}) // dropped, not queued
	if len(crashes) != 0 {
		t.Fatalf("silence reported a crash: %v", crashes)
	}
	if n.Pending() != 2 {
		t.Fatalf("pending = %d", n.Pending())
	}

	// Crash drops the victim's queued inbox, keeps its in-flight sends, and
	// fires the watchers exactly once.
	n.Crash(2)
	n.Crash(2)
	if len(crashes) != 1 || crashes[0] != 2 {
		t.Fatalf("crash reports = %v", crashes)
	}
	if n.Pending() != 1 {
		t.Fatalf("pending after crash = %d", n.Pending())
	}
	if m, _ := n.peek(0); m.Kind != "FROM-VICTIM" {
		t.Fatalf("survivor message = %v", m)
	}

	// Re-attaching revives the site.
	n.Endpoint(2)
	if !n.Alive(2) {
		t.Fatal("re-attached site not alive")
	}
}

func TestSimNetworkBlock(t *testing.T) {
	n := NewSimNetwork()
	e1 := n.Endpoint(1)
	n.Endpoint(2)
	n.Block(1, 2)
	e1.Send(Message{To: 2, Kind: "cut"})
	if n.Pending() != 0 {
		t.Fatal("blocked link delivered")
	}
	n.Unblock(1, 2)
	e1.Send(Message{To: 2, Kind: "ok"})
	if n.Pending() != 1 {
		t.Fatal("unblocked link dropped")
	}
	sent, dropped := n.Stats()
	if sent != 1 || dropped != 1 {
		t.Fatalf("stats = %d sent, %d dropped", sent, dropped)
	}
}
