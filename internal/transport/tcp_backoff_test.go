package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"nbcommit/internal/clock"
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

// redial is the default budget with the redial backoff doubling from base
// up to max.
func redial(base, max time.Duration) clock.Budget {
	b := clock.NewBudget(0)
	b.RedialBase, b.RedialCap = base, max
	return b
}

// TestTCPDeadPeerDropsAreCountedAndBackedOff: every send to an unreachable
// peer is eventually dropped as DropDial, but sends inside the backoff
// window wait in the queue for the next dial rather than being dropped
// before it, and they share that one dial.
func TestTCPDeadPeerDropsAreCountedAndBackedOff(t *testing.T) {
	a, err := ListenTCP(1, "127.0.0.1:0", map[int]string{2: deadAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetBudget(redial(time.Second, time.Second))

	if err := a.Send(Message{To: 2, Kind: "X"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first dial to fail", func() bool { return a.DroppedCause(DropDial) == 1 })
	for i := 0; i < 4; i++ {
		if err := a.Send(Message{To: 2, Kind: "X"}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	time.Sleep(100 * time.Millisecond) // well inside the one-second window
	if got := a.dropped(); got != 1 {
		t.Fatalf("%d messages dropped inside the backoff window, want only the first", got)
	}
	waitFor(t, "the next dial to drop the queued sends", func() bool { return a.DroppedCause(DropDial) == 5 })
	if got := a.dropped(); got != 5 {
		t.Fatalf("Dropped() = %d, want 5, all under dial", got)
	}
	a.mu.Lock()
	b := a.backoff[2]
	a.mu.Unlock()
	if b == nil || b.failures != 2 {
		t.Fatalf("backoff state = %+v, want exactly 2 dial failures", b)
	}
	if got := a.Redials(); got != 2 {
		t.Fatalf("Redials() = %d, want 2", got)
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
	a.SetBudget(redial(50*time.Millisecond, 200*time.Millisecond))

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

// TestTCPBackoffRecovers: a message sent inside the backoff window to a
// peer that has come back is not dropped: it waits in the queue, the next
// dial delivers it once the window passes, and that dial clears the
// backoff state.
func TestTCPBackoffRecovers(t *testing.T) {
	addr := reservedAddr(t)
	a, err := ListenTCP(1, "127.0.0.1:0", map[int]string{2: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetBudget(redial(300*time.Millisecond, 300*time.Millisecond))

	if err := a.Send(Message{To: 2, Kind: "LOST"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the lost message to be counted", func() bool { return a.dropped() == 1 })
	a.mu.Lock()
	retryAt := a.backoff[2].retryAt
	a.mu.Unlock()

	b, err := ListenTCP(2, addr, nil)
	if err != nil {
		t.Skipf("could not re-listen on %s: %v", addr, err)
	}
	defer b.Close()
	if err := a.Send(Message{To: 2, Kind: "QUEUED"}); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, b); m.Kind != "QUEUED" {
		t.Fatalf("got %v", m)
	}
	if time.Now().Before(retryAt) {
		t.Fatal("delivered before the backoff window passed")
	}
	if got := a.dropped(); got != 1 {
		t.Fatalf("Dropped() = %d, want only the message sent while the peer was down", got)
	}
	a.mu.Lock()
	cleared := a.backoff[2] == nil
	a.mu.Unlock()
	if !cleared {
		t.Fatal("successful dial did not clear backoff state")
	}
}

// TestTCPRestartedPeerGetsFirstMessage: a peer that crashes and restarts on
// the same address receives the first message sent to it afterwards. The
// cached connection to its previous incarnation was closed by the crash but
// never written to since; writing to it would lose the message, so the
// writer redials instead.
func TestTCPRestartedPeerGetsFirstMessage(t *testing.T) {
	addr := reservedAddr(t)
	b, err := ListenTCP(2, addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ListenTCP(1, "127.0.0.1:0", map[int]string{2: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(Message{To: 2, Kind: "ONE"}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	b.Close()
	time.Sleep(50 * time.Millisecond) // a restart takes longer than the FIN takes to arrive

	b2, err := ListenTCP(2, addr, nil)
	if err != nil {
		t.Skipf("could not re-listen on %s: %v", addr, err)
	}
	defer b2.Close()
	if err := a.Send(Message{To: 2, Kind: "TWO"}); err != nil {
		t.Fatal(err)
	}
	if m := recvOne(t, b2); m.Kind != "TWO" {
		t.Fatalf("got %v", m)
	}
	if got := a.dropped(); got != 0 {
		t.Fatalf("Dropped() = %d, want 0", got)
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
	a.SetBudget(redial(time.Hour, time.Hour))

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

// TestTCPSetBudgetConcurrentWithSend: the budget may be (re)configured
// while sends are in flight — the old "must be set before first Send" plain
// fields were a data race under exactly this schedule.
func TestTCPSetBudgetConcurrentWithSend(t *testing.T) {
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
			a.SetBudget(redial(time.Duration(i+1)*time.Millisecond, time.Second))
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
	waitFor(t, "drops against an unreachable peer", func() bool { return a.dropped() > 0 })
	if a.Redials() == 0 {
		t.Fatal("expected at least one dial attempt to be counted")
	}
}
