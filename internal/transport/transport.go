// Package transport provides point-to-point message delivery between sites,
// the network substrate assumed by the paper: reliable point-to-point
// communication plus the ability to detect the failure of a site and report
// it to the operational sites.
//
// Two implementations are provided: the in-memory SimNetwork, with fault
// injection (crash-stop sites, partitions, link models, a drop predicate),
// and a TCP transport for real multi-process deployments. SimNetwork runs
// every in-process cluster: a simulation scheduler takes its messages one by
// one (Take), while a live cluster lets Serve hand them to the sites as they
// are sent. It is also the paper's reliable failure reporter: its Alive and
// Watch make it a perfect failure.Detector.
package transport

import (
	"errors"
	"fmt"
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
	// Recv returns the channel on which inbound messages arrive, closed
	// when the endpoint is closed. It is nil when the network hands
	// messages to the site itself (SimNetwork: Take or Serve, then
	// engine.Site.Deliver).
	Recv() <-chan Message
	// Close detaches the endpoint.
	Close() error
}

// ErrClosed is returned when operating on a closed or crashed endpoint.
var ErrClosed = errors.New("transport: endpoint is closed")

// inboxSize bounds each TCP endpoint's unread message queue. Protocol rounds
// are O(sites) messages; 4096 gives ample slack for benchmarks.
const inboxSize = 4096
