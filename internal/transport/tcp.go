package transport

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nbcommit/internal/clock"
	"nbcommit/internal/metrics"
)

// DefaultQueueSize is the per-peer outbound queue capacity when
// TCPOptions.QueueSize is zero.
const DefaultQueueSize = 1024

// maxBatch caps how many queued messages one write coalesces.
const maxBatch = 128

// Codec names a wire encoding. There is one, the binary framing in wire.go.
//
// Deprecated: kept only because existing callers name CodecBinary in
// TCPOptions; ListenTCPOpts refuses any other value.
type Codec string

// CodecBinary is the length-prefixed varint framing (wire.go).
//
// Deprecated: the binary codec is the only codec; leave TCPOptions.Codec
// empty.
const CodecBinary Codec = "binary"

// DropCause classifies why the endpoint dropped a message, so an operator
// can tell a receive-side overflow from a send-side dead peer.
type DropCause int

const (
	// DropDial: a dial attempt to the destination failed.
	DropDial DropCause = iota
	// DropWrite: the cached connection broke mid-write.
	DropWrite
	// DropInboxOverflow: an inbound message arrived with the inbox full.
	DropInboxOverflow
	// DropQueueFull: the destination's outbound queue was full at enqueue.
	DropQueueFull
	numDropCauses
)

// DropCauses lists every cause, for metric registration loops.
var DropCauses = [numDropCauses]DropCause{
	DropDial, DropWrite, DropInboxOverflow, DropQueueFull,
}

func (c DropCause) String() string {
	switch c {
	case DropDial:
		return "dial"
	case DropWrite:
		return "write"
	case DropInboxOverflow:
		return "inbox_overflow"
	case DropQueueFull:
		return "queue_full"
	}
	return "unknown"
}

// TCPOptions tunes a TCPEndpoint. The zero value is the default endpoint.
type TCPOptions struct {
	// Codec must be empty or CodecBinary.
	//
	// Deprecated: there is one codec; this field exists only so existing
	// callers that name CodecBinary still compile.
	Codec Codec
	// QueueSize bounds each peer's outbound queue; a full queue drops the
	// message (DropQueueFull). Zero means DefaultQueueSize.
	QueueSize int
	// BatchSize, when set, observes the message count of every coalesced
	// batch actually written (metrics hook).
	BatchSize func(n int)
}

// peerDial tracks redial backoff for one unreachable peer.
type peerDial struct {
	failures int       // consecutive dial failures
	retryAt  time.Time // no dialing before this
}

// peerWriter is the send side for one destination: a bounded queue drained
// by a dedicated goroutine that owns the connection. Send enqueues and
// returns; dialing, backoff and write stalls for this peer are absorbed
// here and never delay the caller or sends to other peers. A message sent
// inside the peer's redial backoff window waits in the queue for the next
// dial.
type peerWriter struct {
	to    int
	queue chan Message
}

// TCPEndpoint attaches a site to a real network: it listens for inbound
// connections from peers and dials peers on demand. Each peer gets an
// asynchronous writer goroutine with a bounded outbound queue; queued
// messages are coalesced into a single buffered write, so a commit round's
// N small messages to the same site cost one syscall instead of N. Messages
// are framed with a compact varint binary codec (wire.go); an inbound
// connection that speaks anything else is closed. Delivery to an
// unreachable peer is dropped (matching the crash-stop semantics of the
// in-memory SimNetwork) and counted by cause, so an operator can tell a quiet
// peer from a dead one. Dial and redial timing comes from a clock.Budget.
type TCPEndpoint struct {
	id    int
	ln    net.Listener
	inbox chan Message
	opts  TCPOptions

	// ctx is cancelled by Close: it wakes idle writers and aborts in-flight
	// dials so Close never waits out a dial timeout.
	ctx    context.Context
	cancel context.CancelFunc

	// budget supplies the redial backoff bounds and the dial timeout.
	// Atomic so SetBudget is safe at any time, including concurrently with
	// Send.
	budget atomic.Pointer[clock.Budget]

	mu      sync.Mutex
	peers   map[int]string      // site ID -> address
	writers map[int]*peerWriter // created lazily on first Send
	conns   map[int]net.Conn    // writers' live connections, closed by Close
	inbound map[net.Conn]bool
	backoff map[int]*peerDial
	closed  bool

	drops   [numDropCauses]metrics.Counter
	redials metrics.Counter

	// Coalescing stats: batches written and messages they carried.
	batches   metrics.Counter
	batchMsgs metrics.Counter

	wg sync.WaitGroup
}

// ListenTCP starts a TCP endpoint for site id on addr (e.g. "127.0.0.1:0")
// with default options. peers maps every other site ID to its address;
// entries may be added later with AddPeer.
func ListenTCP(id int, addr string, peers map[int]string) (*TCPEndpoint, error) {
	return ListenTCPOpts(id, addr, peers, TCPOptions{})
}

// ListenTCPOpts starts a TCP endpoint with explicit options.
func ListenTCPOpts(id int, addr string, peers map[int]string, opts TCPOptions) (*TCPEndpoint, error) {
	if opts.Codec != "" && opts.Codec != CodecBinary {
		return nil, fmt.Errorf("transport: unknown codec %q", opts.Codec)
	}
	if opts.QueueSize <= 0 {
		opts.QueueSize = DefaultQueueSize
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &TCPEndpoint{
		id:      id,
		ln:      ln,
		inbox:   make(chan Message, inboxSize),
		opts:    opts,
		ctx:     ctx,
		cancel:  cancel,
		peers:   map[int]string{},
		writers: map[int]*peerWriter{},
		conns:   map[int]net.Conn{},
		inbound: map[net.Conn]bool{},
		backoff: map[int]*peerDial{},
	}
	for p, a := range peers {
		e.peers[p] = a
	}
	e.SetBudget(clock.NewBudget(0))
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// SetBudget takes the redial backoff and the dial timeout from b (the
// default is clock.NewBudget(0)). After a dial failure the peer is not
// dialled again until the backoff window passes, doubling per consecutive
// failure from b.RedialBase up to b.RedialCap; each dial gives up after
// b.Dial. Safe to call at any time, even concurrently with Send.
func (e *TCPEndpoint) SetBudget(b clock.Budget) { e.budget.Store(&b) }

// Addr returns the endpoint's listening address, useful when listening on
// port 0.
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// AddPeer registers or updates the address of a peer site. A new address
// clears any redial backoff accumulated against the old one.
func (e *TCPEndpoint) AddPeer(id int, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.peers[id] = addr
	delete(e.backoff, id)
}

// dropped returns how many messages this endpoint has dropped, summed over
// every cause — see DroppedCause for the breakdown.
func (e *TCPEndpoint) dropped() int64 {
	var total int64
	for i := range e.drops {
		total += e.drops[i].Value()
	}
	return total
}

// DroppedCause returns how many messages were dropped for one cause.
func (e *TCPEndpoint) DroppedCause(c DropCause) int64 {
	if c < 0 || c >= numDropCauses {
		return 0
	}
	return e.drops[c].Value()
}

// Redials returns how many outbound dials this endpoint has attempted —
// connection churn: a healthy cluster dials each peer once, so a growing
// count means peers are flapping or unreachable.
func (e *TCPEndpoint) Redials() int64 { return e.redials.Value() }

// InboxDepth returns how many inbound messages are queued but not yet
// consumed; a depth pinned near the inbox capacity precedes overflow drops.
func (e *TCPEndpoint) InboxDepth() int { return len(e.inbox) }

// QueueDepth returns how many outbound messages are queued for peer but not
// yet written; a depth pinned near the queue capacity precedes
// DropQueueFull drops.
func (e *TCPEndpoint) QueueDepth(peer int) int {
	e.mu.Lock()
	w := e.writers[peer]
	e.mu.Unlock()
	if w == nil {
		return 0
	}
	return len(w.queue)
}

// batchStats returns how many coalesced batches have been written and how
// many messages they carried; msgs/batches is the mean coalescing factor.
func (e *TCPEndpoint) batchStats() (batches, msgs int64) {
	return e.batches.Value(), e.batchMsgs.Value()
}

// ID implements Endpoint.
func (e *TCPEndpoint) ID() int { return e.id }

// Recv implements Endpoint.
func (e *TCPEndpoint) Recv() <-chan Message { return e.inbox }

// Send implements Endpoint. It is a non-blocking enqueue onto the
// destination's writer queue: a dead, dialling or stalled peer never blocks
// the caller or delays sends to other peers. A full queue drops the message
// (DropQueueFull), matching crash-stop semantics.
func (e *TCPEndpoint) Send(m Message) error {
	m.From = e.id
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	w := e.writers[m.To]
	if w == nil {
		if _, known := e.peers[m.To]; !known {
			e.mu.Unlock()
			return fmt.Errorf("transport: no address for site %d", m.To)
		}
		w = &peerWriter{to: m.To, queue: make(chan Message, e.opts.QueueSize)}
		e.writers[m.To] = w
		e.wg.Add(1)
		go e.runWriter(w)
	}
	e.mu.Unlock()
	select {
	case w.queue <- m:
	default:
		e.drops[DropQueueFull].Inc()
	}
	return nil
}

// writerConn is a peer writer's connection state, owned by its goroutine.
type writerConn struct {
	conn      net.Conn
	needMagic bool          // wireMagic not yet written
	closed    chan struct{} // closed once the peer has closed conn
}

// runWriter drains one peer's queue: it takes a message, waits out the
// peer's redial backoff window if it has no connection, coalesces whatever
// else is queued by then (up to maxBatch), and writes the batch with a
// single flush. It exits when the endpoint closes.
func (e *TCPEndpoint) runWriter(w *peerWriter) {
	defer e.wg.Done()
	var wc writerConn
	defer e.dropConn(w.to, &wc)
	batch := make([]Message, 0, maxBatch)
	done := e.ctx.Done()
	for {
		select {
		case m := <-w.queue:
			if wc.conn == nil && !e.awaitRedial(w.to) {
				return
			}
			batch = append(batch[:0], m)
		drain:
			for len(batch) < maxBatch {
				select {
				case m2 := <-w.queue:
					batch = append(batch, m2)
				default:
					break drain
				}
			}
			e.flushBatch(w, &wc, batch)
		case <-done:
			return
		}
	}
}

// flushBatch writes one coalesced batch, connecting first if needed. A
// failure anywhere drops the whole batch under the matching cause: under
// crash-stop semantics a lost message is not an error, only a statistic.
func (e *TCPEndpoint) flushBatch(w *peerWriter, wc *writerConn, batch []Message) {
	select {
	case <-wc.closed:
		// The peer closed the connection (it crashed, and may have
		// restarted): a write would be lost, so redial instead.
		e.dropConn(w.to, wc)
	default:
	}
	if wc.conn == nil && !e.connect(w, wc) {
		e.drops[DropDial].Add(int64(len(batch)))
		return
	}
	bufp := wireBufPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	if wc.needMagic {
		buf = append(buf, wireMagic[:]...)
	}
	for _, m := range batch {
		buf = appendMessage(buf, m)
	}
	_, err := wc.conn.Write(buf)
	*bufp = buf[:0]
	wireBufPool.Put(bufp)
	if err != nil {
		e.dropConn(w.to, wc)
		e.drops[DropWrite].Add(int64(len(batch)))
		return
	}
	wc.needMagic = false
	e.batches.Inc()
	e.batchMsgs.Add(int64(len(batch)))
	if e.opts.BatchSize != nil {
		e.opts.BatchSize(len(batch))
	}
}

// awaitRedial blocks until the peer's redial backoff window has passed, so
// the message that woke the writer, and any queued behind it, wait for the
// next dial instead of being dropped. It reports false if the endpoint
// closed meanwhile.
func (e *TCPEndpoint) awaitRedial(to int) bool {
	e.mu.Lock()
	var wait time.Duration
	if b := e.backoff[to]; b != nil {
		wait = time.Until(b.retryAt)
	}
	e.mu.Unlock()
	if wait <= 0 {
		return true
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-e.ctx.Done():
		return false
	}
}

// connect establishes the writer's connection, reporting whether it did.
func (e *TCPEndpoint) connect(w *peerWriter, wc *writerConn) bool {
	e.mu.Lock()
	addr, known := e.peers[w.to]
	e.mu.Unlock()
	if !known {
		return false
	}

	e.redials.Inc()
	d := net.Dialer{Timeout: e.budget.Load().Dial}
	conn, err := d.DialContext(e.ctx, "tcp", addr)
	if err != nil {
		e.mu.Lock()
		e.noteDialFailure(w.to)
		e.mu.Unlock()
		return false
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		conn.Close()
		return false
	}
	delete(e.backoff, w.to)
	e.conns[w.to] = conn
	e.mu.Unlock()

	*wc = writerConn{conn: conn, needMagic: true, closed: make(chan struct{})}
	// The peer never writes on a connection it accepted, so a read returns
	// only once the connection is closed at either end.
	e.wg.Add(1)
	go func(closed chan struct{}) {
		defer e.wg.Done()
		conn.Read(make([]byte, 1))
		close(closed)
	}(wc.closed)
	return true
}

// dropConn tears down a writer's connection (if any) and deregisters it.
func (e *TCPEndpoint) dropConn(to int, wc *writerConn) {
	if wc.conn == nil {
		return
	}
	wc.conn.Close()
	e.mu.Lock()
	if e.conns[to] == wc.conn {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	*wc = writerConn{}
}

// noteDialFailure doubles the peer's redial backoff, bounded by the
// budget's RedialCap. Caller holds e.mu.
func (e *TCPEndpoint) noteDialFailure(to int) {
	bud := e.budget.Load()
	base, max := bud.RedialBase, bud.RedialCap
	b := e.backoff[to]
	if b == nil {
		b = &peerDial{}
		e.backoff[to] = b
	}
	d := max
	if b.failures < 16 { // beyond 2^16 the shift is past any sane max
		if d = base << b.failures; d > max {
			d = max
		}
	}
	b.failures++
	b.retryAt = time.Now().Add(d)
}

// Close implements Endpoint. It interrupts blocked writes and in-flight
// dials, waits for every writer and reader goroutine to drain, and discards
// messages still queued but unsent (crash-stop: they are simply lost).
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := make([]net.Conn, 0, len(e.conns)+len(e.inbound))
	for _, c := range e.conns {
		conns = append(conns, c)
	}
	for c := range e.inbound {
		conns = append(conns, c)
	}
	e.mu.Unlock()
	e.cancel() // wakes idle writers, aborts in-flight dials
	for _, c := range conns {
		c.Close() // unblocks writers stuck in Write and readers in Read
	}
	e.ln.Close()
	e.wg.Wait()
	close(e.inbox)
	return nil
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.inbound[conn] = true
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

// readLoop decodes one inbound connection. A connection that does not open
// with wireMagic, or that sends a malformed frame, is closed: everything
// already delivered from it stands, nothing after the bad bytes is read.
func (e *TCPEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		conn.Close()
		e.mu.Lock()
		delete(e.inbound, conn)
		e.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	head, err := br.Peek(len(wireMagic))
	if err != nil || !bytes.Equal(head, wireMagic[:]) {
		return
	}
	br.Discard(len(wireMagic))
	bufp := wireBufPool.Get().(*[]byte)
	scratch := *bufp
	defer func() {
		*bufp = scratch[:0]
		wireBufPool.Put(bufp)
	}()
	for {
		var m Message
		m, scratch, err = readWireMessage(br, scratch[:cap(scratch)])
		if err != nil {
			return
		}
		e.deliver(m)
	}
}

// deliver hands an inbound message to the inbox, dropping on overflow as
// the in-memory transport does. Readers hold the waitgroup, so the inbox
// cannot be closed underneath them.
func (e *TCPEndpoint) deliver(m Message) {
	select {
	case e.inbox <- m:
	default:
		e.drops[DropInboxOverflow].Inc()
	}
}
