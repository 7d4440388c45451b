// Package transport provides point-to-point message delivery between sites,
// the network substrate assumed by the paper: reliable point-to-point
// communication plus the ability to detect the failure of a site and report
// it to the operational sites.
//
// Three implementations are provided: an in-memory Network with fault
// injection (crash-stop sites, partitions, drop hooks) used by tests and
// examples, the deterministic SimNetwork that simulation testing schedules
// message by message, and a TCP transport for real multi-process
// deployments. Both in-memory networks are also the paper's reliable failure
// reporter: their Alive and Watch make them a perfect failure.Detector.
package transport

import (
	"errors"
	"fmt"
	"sync"
)

// Message is one protocol message. Kind is the protocol-level message name
// ("VOTE-REQ", "YES", "PREPARE", ...); Body carries any payload the sender
// wants, encoded by the caller.
type Message struct {
	From int
	To   int
	Kind string
	TxID string
	Body []byte
}

// String renders e.g. "PREPARE[1->3 tx=t42]".
func (m Message) String() string {
	return fmt.Sprintf("%s[%d->%d tx=%s]", m.Kind, m.From, m.To, m.TxID)
}

// Endpoint is one site's attachment to the network.
type Endpoint interface {
	// ID returns the site ID this endpoint belongs to.
	ID() int
	// Send delivers m to m.To. The From field is overwritten with the
	// endpoint's ID. Sending to a crashed or partitioned destination is not
	// an error: the message is silently lost, as under crash-stop
	// semantics.
	Send(m Message) error
	// Recv returns the channel on which inbound messages arrive. The
	// channel is closed when the endpoint is closed or its site crashes.
	Recv() <-chan Message
	// Close detaches the endpoint.
	Close() error
}

// ErrClosed is returned when operating on a closed or crashed endpoint.
var ErrClosed = errors.New("transport: endpoint is closed")

// inboxSize bounds each site's unread message queue. Protocol rounds are
// O(sites) messages; 4096 gives ample slack for benchmarks.
const inboxSize = 4096

// Network is an in-memory transport connecting any number of sites, with
// hooks for injecting the failures the paper studies. All methods are safe
// for concurrent use.
type Network struct {
	mu        sync.Mutex
	endpoints map[int]*memEndpoint
	down      map[int]bool
	blocked   map[[2]int]bool
	dropFn    func(Message) bool
	watchers  []func(site int)
	delivered uint64
	dropped   uint64
}

// NewNetwork returns an empty in-memory network.
func NewNetwork() *Network {
	return &Network{
		endpoints: map[int]*memEndpoint{},
		down:      map[int]bool{},
		blocked:   map[[2]int]bool{},
	}
}

// Endpoint attaches (or re-attaches) site id to the network. Re-attaching
// after a crash models the site restarting with an empty message queue.
func (n *Network) Endpoint(id int) Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if old := n.endpoints[id]; old != nil {
		old.closeLocked()
	}
	ep := &memEndpoint{net: n, id: id, inbox: make(chan Message, inboxSize)}
	n.endpoints[id] = ep
	delete(n.down, id)
	return ep
}

// Crash marks a site failed: its endpoint stops receiving, queued messages
// are discarded, and every crash watcher is notified — the paper's "network
// can detect the failure of a site and reliably report it".
func (n *Network) Crash(id int) {
	n.mu.Lock()
	if n.down[id] {
		n.mu.Unlock()
		return
	}
	n.down[id] = true
	if ep := n.endpoints[id]; ep != nil {
		ep.closeLocked()
		delete(n.endpoints, id)
	}
	watchers := append([]func(int){}, n.watchers...)
	n.mu.Unlock()
	for _, w := range watchers {
		w(id)
	}
}

// Alive reports whether the site is operational (attached and not crashed).
func (n *Network) Alive(id int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.endpoints[id] != nil && !n.down[id]
}

// Watch registers a callback invoked (synchronously, outside the network
// lock) whenever a site crashes, satisfying failure.Detector.
func (n *Network) Watch(cb func(site int)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.watchers = append(n.watchers, cb)
}

// Block cuts the link between two sites in both directions (a partition
// fault — outside the paper's model, provided for extension tests).
func (n *Network) Block(a, b int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[link(a, b)] = true
}

// Unblock restores the link between two sites.
func (n *Network) Unblock(a, b int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, link(a, b))
}

// SetDropFunc installs a hook consulted for every message; returning true
// drops the message. Pass nil to clear.
func (n *Network) SetDropFunc(f func(Message) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropFn = f
}

// Stats returns the number of messages delivered and dropped so far.
func (n *Network) Stats() (delivered, dropped uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delivered, n.dropped
}

func link(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

type memEndpoint struct {
	net    *Network
	id     int
	inbox  chan Message
	closed bool
}

func (e *memEndpoint) ID() int { return e.id }

func (e *memEndpoint) Recv() <-chan Message { return e.inbox }

func (e *memEndpoint) Send(m Message) error {
	m.From = e.id
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if e.closed || n.down[e.id] {
		return ErrClosed
	}
	dst := n.endpoints[m.To]
	if dst == nil || n.down[m.To] || n.blocked[link(e.id, m.To)] ||
		(n.dropFn != nil && n.dropFn(m)) {
		n.dropped++
		return nil // crash-stop: the message is lost, not an error
	}
	select {
	case dst.inbox <- m:
		n.delivered++
	default:
		// Inbox overflow: treat as a dropped message rather than blocking
		// the sender while holding the network lock.
		n.dropped++
	}
	return nil
}

func (e *memEndpoint) Close() error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.closeLocked()
	if e.net.endpoints[e.id] == e {
		delete(e.net.endpoints, e.id)
	}
	return nil
}

// closeLocked requires n.mu held.
func (e *memEndpoint) closeLocked() {
	if !e.closed {
		e.closed = true
		close(e.inbox)
	}
}
