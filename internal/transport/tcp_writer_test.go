package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbcommit/internal/metrics"
)

// blackholeListener accepts connections and never reads from them: the
// sender's kernel buffers fill and its writes block — the shape of a hung
// (not crashed) peer. release() starts draining every connection.
func blackholeListener(t *testing.T) (addr string, release func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	released := make(chan struct{})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go func(c net.Conn) {
				<-released
				io.Copy(io.Discard, c)
			}(c)
		}
	}()
	var once sync.Once
	t.Cleanup(func() {
		ln.Close()
		once.Do(func() { close(released) })
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	})
	return ln.Addr().String(), func() { once.Do(func() { close(released) }) }
}

// bigPayload is large enough that a handful of messages overwhelm loopback
// socket buffers and block the peer's writer goroutine mid-Write. Shared
// across tests; the transport never mutates message bodies.
var bigPayload = make([]byte, 4<<20)

// TestTCPCloseWithQueuedMessages: Close must return promptly — interrupting
// a writer blocked in Write and discarding queued unsent messages — with
// every goroutine drained (Close returning IS the wg.Wait proof).
func TestTCPCloseWithQueuedMessages(t *testing.T) {
	addr, _ := blackholeListener(t)
	a, err := ListenTCPOpts(1, "127.0.0.1:0", map[int]string{2: addr}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := a.Send(Message{To: 2, Kind: "BIG", Body: bigPayload}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the writer is demonstrably wedged: messages stuck in queue.
	waitFor(t, "a blocked writer", func() bool { return a.QueueDepth(2) > 0 })

	done := make(chan error, 1)
	go func() { done <- a.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with queued unsent messages")
	}
	if err := a.Send(Message{To: 2}); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}

// TestTCPQueueFullDropAccounting: a stalled peer fills its bounded queue and
// further sends are dropped under DropQueueFull — and the per-cause split
// sums to Dropped().
func TestTCPQueueFullDropAccounting(t *testing.T) {
	addr, _ := blackholeListener(t)
	a, err := ListenTCPOpts(1, "127.0.0.1:0", map[int]string{2: addr}, TCPOptions{QueueSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 40; i++ {
		if err := a.Send(Message{To: 2, Kind: "BIG", Body: bigPayload}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "queue-full drops", func() bool { return a.DroppedCause(DropQueueFull) > 0 })
	var sum int64
	for _, c := range DropCauses {
		sum += a.DroppedCause(c)
	}
	if got := a.dropped(); got != sum {
		t.Fatalf("Dropped() = %d, sum of causes = %d", got, sum)
	}
}

// TestTCPBlackholedPeerDoesNotBlockHealthyPeer is the regression test for
// the old single-mutex Send: with one peer wedged mid-Write, sends to a
// healthy peer must still be delivered with ordinary latency. Under the
// pre-rewrite transport this test deadlocks until the blackholed write's
// kernel buffers drain — the mutex was held across the blocked syscall.
func TestTCPBlackholedPeerDoesNotBlockHealthyPeer(t *testing.T) {
	dead, _ := blackholeListener(t)
	b, err := ListenTCP(3, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenTCP(1, "127.0.0.1:0", map[int]string{2: dead, 3: b.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Wedge peer 2's writer.
	for i := 0; i < 8; i++ {
		if err := a.Send(Message{To: 2, Kind: "BIG", Body: bigPayload}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the blackholed writer to wedge", func() bool { return a.QueueDepth(2) > 0 })

	// Healthy peer: 200 request/response-paced sends, each timed.
	var lat metrics.Histogram
	for i := 0; i < 200; i++ {
		start := time.Now()
		if err := a.Send(Message{To: 3, Kind: "PING", TxID: "t"}); err != nil {
			t.Fatal(err)
		}
		if m := recvOne(t, b); m.Kind != "PING" {
			t.Fatalf("got %v", m)
		}
		lat.Observe(time.Since(start))
	}
	if p99 := lat.Quantile(0.99); p99 > 500*time.Millisecond {
		t.Fatalf("healthy-peer p99 = %v with a blackholed peer; sends are being delayed", p99)
	}
}

// TestTCPCoalescingBatchesQueuedMessages: messages that pile up behind a
// stalled write are flushed as coalesced batches — observably fewer writes
// than messages — and all of them are accounted to batches.
func TestTCPCoalescingBatchesQueuedMessages(t *testing.T) {
	addr, release := blackholeListener(t)
	a, err := ListenTCPOpts(1, "127.0.0.1:0", map[int]string{2: addr}, TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// Block the writer — keep feeding it big messages until at least one is
	// stuck in the queue — then pile 50 small messages behind the stall.
	sent := 0
	for a.QueueDepth(2) == 0 {
		if err := a.Send(Message{To: 2, Kind: "BIG", Body: bigPayload}); err != nil {
			t.Fatal(err)
		}
		if sent++; sent > 100 {
			t.Fatal("writer never wedged against the blackholed peer")
		}
	}
	for i := 0; i < 50; i++ {
		if err := a.Send(Message{To: 2, Kind: "SMALL", TxID: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	release()
	total := int64(sent + 50)
	waitFor(t, "the queue to drain", func() bool {
		_, msgs := a.batchStats()
		return msgs == total && a.QueueDepth(2) == 0
	})
	batches, msgs := a.batchStats()
	if msgs != total || batches >= msgs {
		t.Fatalf("batches=%d msgs=%d: expected coalescing (fewer writes than messages)", batches, msgs)
	}
}

// TestTCPCodecInterop: an endpoint speaks one codec. A connection carrying a
// gob stream, or a binary frame of an unknown version, delivers nothing and
// is closed; a binary sender to the same endpoint is still delivered. Only
// the binary codec can be configured.
func TestTCPCodecInterop(t *testing.T) {
	if _, err := ListenTCPOpts(1, "127.0.0.1:0", nil, TCPOptions{Codec: "gob"}); err == nil {
		t.Fatal("ListenTCPOpts accepted codec \"gob\"")
	}
	recv, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	want := Message{From: 1, To: 2, Kind: "VOTE-REQ", TxID: "x", Body: []byte("payload")}

	// refused writes raw bytes on a fresh connection and waits for the
	// receiver to close it. The close happens after its reader returns, so
	// the inbox depth read afterwards is final for that connection.
	refused := func(t *testing.T, raw []byte) {
		conn, err := net.Dial("tcp", recv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(make([]byte, 1))
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("connection was not closed")
		}
		if n != 0 || err == nil {
			t.Fatalf("read %d bytes, err %v: want the connection closed", n, err)
		}
		if d := recv.InboxDepth(); d != 0 {
			t.Fatalf("%d message(s) delivered from a refused connection", d)
		}
	}
	t.Run("gob", func(t *testing.T) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(want); err != nil {
			t.Fatal(err)
		}
		refused(t, buf.Bytes())
	})
	t.Run("version2", func(t *testing.T) {
		frame := appendMessage(nil, want)
		_, n := binary.Uvarint(frame)
		frame[n] = 2
		// A good frame after the bad one must not be read either.
		raw := append(append([]byte(nil), wireMagic[:]...), frame...)
		refused(t, appendMessage(raw, want))
	})
	t.Run("binary", func(t *testing.T) {
		send, err := ListenTCPOpts(1, "127.0.0.1:0", map[int]string{2: recv.Addr()}, TCPOptions{Codec: CodecBinary})
		if err != nil {
			t.Fatal(err)
		}
		defer send.Close()
		if err := send.Send(want); err != nil {
			t.Fatal(err)
		}
		m := recvOne(t, recv)
		if m.From != 1 || m.Kind != want.Kind || m.TxID != want.TxID || string(m.Body) != "payload" {
			t.Fatalf("got %+v", m)
		}
	})
}

// TestTCPBatchSizeHook: the BatchSize metrics hook observes every written
// batch. The writer counts a batch after its write returns, which can be
// after the peer already has the message, so the test waits for the hook.
func TestTCPBatchSizeHook(t *testing.T) {
	b, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var mu sync.Mutex
	var observed []int
	a, err := ListenTCPOpts(1, "127.0.0.1:0", map[int]string{2: b.Addr()}, TCPOptions{
		BatchSize: func(n int) { mu.Lock(); observed = append(observed, n); mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(Message{To: 2, Kind: "M"}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	waitFor(t, "the BatchSize hook", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(observed) > 0
	})
	mu.Lock()
	defer mu.Unlock()
	if observed[0] != 1 {
		t.Fatalf("BatchSize hook observed %v, want [1]", observed)
	}
}

// TestTCPConcurrentSendAddPeerSetBudgetClose races every mutating entry
// point against Send, under -race in CI: concurrent sends to live and dead
// peers, peer re-addressing, budget reconfiguration, stat reads, then
// Close in the middle of it all.
func TestTCPConcurrentSendAddPeerSetBudgetClose(t *testing.T) {
	live, err := ListenTCP(2, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	go func() { // drain
		for range live.Recv() {
		}
	}()
	dead := deadAddr
	a, err := ListenTCP(1, "127.0.0.1:0", map[int]string{2: live.Addr(), 3: dead})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 300; i++ {
				to := 2 + (i+g)%2 // alternate live and dead peers
				if err := a.Send(Message{To: to, Kind: "X", TxID: "t"}); err != nil && err != ErrClosed {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 100; i++ {
			a.AddPeer(2, live.Addr())
			a.AddPeer(3, dead)
			a.SetBudget(redial(time.Duration(i+1)*time.Millisecond, time.Second))
			_ = a.dropped()
			_ = a.QueueDepth(2)
			_, _ = a.batchStats()
			_ = a.Redials()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(5 * time.Millisecond)
		if err := a.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	close(start)
	wg.Wait()
	if err := a.Send(Message{To: 2}); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}

// BenchmarkTCPThroughput measures one-way message throughput between two
// loopback endpoints at 1, 8 and 64 B bodies. At most window messages are in
// flight, fewer than either the send queue or the receive inbox holds, so
// nothing is dropped and every message is awaited; each body is checked byte
// for byte on arrival. msgs/write is the writer's mean coalescing factor over
// the timed messages.
func BenchmarkTCPThroughput(b *testing.B) {
	const window = 256
	for _, size := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			recv, err := ListenTCP(2, "127.0.0.1:0", nil)
			if err != nil {
				b.Fatal(err)
			}
			defer recv.Close()
			snd, err := ListenTCP(1, "127.0.0.1:0", map[int]string{2: recv.Addr()})
			if err != nil {
				b.Fatal(err)
			}
			defer snd.Close()
			body := make([]byte, size)
			for i := range body {
				body[i] = byte(i*7 + 11)
			}

			// Dial outside the timed loop.
			if err := snd.Send(Message{To: 2, Kind: "WARM"}); err != nil {
				b.Fatal(err)
			}
			recvOne(b, recv)
			waitFor(b, "the warm-up write", func() bool { _, msgs := snd.batchStats(); return msgs == 1 })
			writes0, msgs0 := snd.batchStats()

			credits := make(chan struct{}, window)
			var corrupt atomic.Int64
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < b.N; i++ {
					m, ok := <-recv.Recv()
					if !ok {
						return
					}
					if m.Kind != "BENCH" || !bytes.Equal(m.Body, body) {
						corrupt.Add(1)
					}
					<-credits
				}
			}()

			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				credits <- struct{}{}
				if err := snd.Send(Message{To: 2, Kind: "BENCH", Body: body}); err != nil {
					b.Fatal(err)
				}
			}
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				b.Fatalf("receiver stalled: %d sent, %d dropped", b.N, snd.dropped()+recv.dropped())
			}
			b.StopTimer()
			if n := corrupt.Load(); n > 0 {
				b.Fatalf("%d of %d messages arrived with a wrong kind or body", n, b.N)
			}
			// The writer counts a batch after its write returns, which can be
			// after the receiver already has the messages.
			waitFor(b, "the batch counters", func() bool { _, msgs := snd.batchStats(); return msgs == msgs0+int64(b.N) })
			writes, msgs := snd.batchStats()
			b.ReportMetric(float64(msgs-msgs0)/float64(writes-writes0), "msgs/write")
		})
	}
}
