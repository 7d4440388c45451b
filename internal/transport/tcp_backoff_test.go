package transport

import (
	"net"
	"sync"
	"testing"
	"time"
)

// deadAddr refuses connections: nothing listens on port 1 and the kernel
// never hands it out as an ephemeral port, so — unlike a listened-and-closed
// port — it cannot be recycled into a later ":0" bind mid-test.
const deadAddr = "127.0.0.1:1"

// reservedAddr returns an address that refuses connections right now but can
// be re-listened on later: a port that was briefly listened on and closed.
func reservedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// waitFor polls cond until it holds or the deadline passes. Sends are now an
// asynchronous enqueue, so drop and dial accounting settles a writer
// goroutine later, not synchronously inside Send.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTCPDeadPeerDropsAreCountedAndBackedOff: every send to an unreachable
// peer is eventually counted as dropped, and only the first batch dials —
// the rest fall inside the backoff window.
func TestTCPDeadPeerDropsAreCountedAndBackedOff(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", map[int]string{2: deadAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetBackoff(time.Second, time.Second) // wide window: at most one dial below

	for i := 0; i < 5; i++ {
		if err := a.Send(Message{To: 2, Kind: "X"}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	waitFor(t, "5 drops", func() bool { return a.Dropped() == 5 })
	if dial, back := a.DroppedCause(DropDial), a.DroppedCause(DropBackoff); dial+back != 5 {
		t.Fatalf("drops dial=%d backoff=%d, want sum 5", dial, back)
	}
	a.mu.Lock()
	b := a.backoff[2]
	a.mu.Unlock()
	if b == nil || b.failures != 1 {
		t.Fatalf("backoff state = %+v, want exactly 1 dial failure", b)
	}
	if got := a.Redials(); got != 1 {
		t.Fatalf("Redials() = %d, want 1", got)
	}
}

// TestTCPBackoffIsBounded: the redial delay doubles per consecutive failure
// but never exceeds the configured maximum, even after enough failures to overflow a
// naive shift.
func TestTCPBackoffIsBounded(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetBackoff(50*time.Millisecond, 200*time.Millisecond)

	a.mu.Lock()
	for i := 0; i < 80; i++ {
		a.noteDialFailure(2)
	}
	b := a.backoff[2]
	a.mu.Unlock()
	if b.failures != 80 {
		t.Fatalf("failures = %d", b.failures)
	}
	if wait := time.Until(b.retryAt); wait > 250*time.Millisecond {
		t.Fatalf("backoff %v exceeds the 200ms bound", wait)
	}
}

// TestTCPBackoffRecovers: a peer that comes back is reachable again once the
// backoff window passes, and delivery clears the backoff state.
func TestTCPBackoffRecovers(t *testing.T) {
	addr := reservedAddr(t)
	a, err := ListenTCP(1, "127.0.0.1:0", map[int]string{2: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetBackoff(50*time.Millisecond, 50*time.Millisecond)

	if err := a.Send(Message{To: 2, Kind: "LOST"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the lost message to be counted", func() bool { return a.Dropped() == 1 })

	b, err := ListenTCP(2, addr, nil)
	if err != nil {
		t.Skipf("could not re-listen on %s: %v", addr, err)
	}
	defer b.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := a.Send(Message{To: 2, Kind: "BACK"}); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-b.Recv():
			if m.Kind != "BACK" {
				t.Fatalf("got %v", m)
			}
			a.mu.Lock()
			cleared := a.backoff[2] == nil
			a.mu.Unlock()
			if !cleared {
				t.Fatal("successful dial did not clear backoff state")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("delivery never resumed")
		}
	}
}

// TestTCPAddPeerClearsBackoff: re-addressing a peer forgets the backoff
// accumulated against the old address.
func TestTCPAddPeerClearsBackoff(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", map[int]string{2: deadAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetBackoff(time.Hour, time.Hour)

	if err := a.Send(Message{To: 2}); err != nil {
		t.Fatal(err)
	}
	// Wait for the dial failure to be recorded before re-addressing, so the
	// hour-long backoff is in place when AddPeer clears it.
	waitFor(t, "the dial failure", func() bool { return a.DroppedCause(DropDial) == 1 })
	b, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(2, b.Addr())
	if err := a.Send(Message{To: 2, Kind: "HI"}); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, b); m.Kind != "HI" {
		t.Fatalf("got %v", m)
	}
}

// TestTCPSetBackoffConcurrentWithSend: backoff bounds may be (re)configured
// while sends are in flight — the old "must be set before first Send" plain
// fields were a data race under exactly this schedule.
func TestTCPSetBackoffConcurrentWithSend(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", map[int]string{2: deadAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			a.SetBackoff(time.Duration(i+1)*time.Millisecond, time.Second)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := a.Send(Message{To: 2, Kind: "X"}); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	waitFor(t, "drops against an unreachable peer", func() bool { return a.Dropped() > 0 })
	if a.Redials() == 0 {
		t.Fatal("expected at least one dial attempt to be counted")
	}
}
