// Package failure provides site-failure detection, realizing the paper's
// network assumption that "the underlying network can detect the failure of
// a site and reliably report it to an operational site".
//
// Detector is the view the engine consumes. The in-memory network,
// transport.SimNetwork, implements it directly as a perfect detector: it
// reports exactly its own crash state, which matches the paper's model. HeartbeatDetector approximates the assumption
// over real transports by exchanging periodic heartbeats and declaring a
// peer crashed after a timeout.
package failure

import (
	"sync"
	"time"
)

// Detector reports which sites are operational and notifies watchers of
// crashes.
type Detector interface {
	// Alive reports whether the site is currently believed operational.
	Alive(site int) bool
	// Watch registers a callback invoked once per detected crash.
	Watch(cb func(site int))
}

// HeartbeatKind is the transport message kind used for heartbeats; message
// loops should route messages of this kind to HeartbeatDetector.Observe.
const HeartbeatKind = "HB"

// HeartbeatDetector suspects peers that stop sending heartbeats. It sends
// its own heartbeats through a caller-provided send function (so it composes
// with any transport) and is told about inbound heartbeats via Observe.
//
// A peer declared crashed stays crashed until Observe sees it again, at
// which point it is reinstated (a restarted site).
type HeartbeatDetector struct {
	self     int
	peers    []int
	interval time.Duration
	timeout  time.Duration
	send     func(to int)

	mu       sync.Mutex
	lastSeen map[int]time.Time
	dead     map[int]bool
	watchers []func(int)
	stop     chan struct{}
	done     chan struct{}
}

// NewHeartbeat creates a detector for self among peers. send must transmit a
// heartbeat message to the given site (typically wrapping Endpoint.Send with
// Kind=HeartbeatKind). Call Start to begin, Stop to halt.
func NewHeartbeat(self int, peers []int, interval, timeout time.Duration, send func(to int)) *HeartbeatDetector {
	d := &HeartbeatDetector{
		self:     self,
		peers:    append([]int(nil), peers...),
		interval: interval,
		timeout:  timeout,
		send:     send,
		lastSeen: map[int]time.Time{},
		dead:     map[int]bool{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	now := time.Now()
	for _, p := range d.peers {
		d.lastSeen[p] = now
	}
	return d
}

// Start launches the heartbeat/checking loop.
func (d *HeartbeatDetector) Start() {
	go func() {
		defer close(d.done)
		ticker := time.NewTicker(d.interval)
		defer ticker.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-ticker.C:
				for _, p := range d.peers {
					if p != d.self {
						d.send(p)
					}
				}
				d.check()
			}
		}
	}()
}

// Stop halts the loop and waits for it to exit.
func (d *HeartbeatDetector) Stop() {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	<-d.done
}

// Observe records a heartbeat (or any message) from a peer, refuting any
// suspicion of it.
func (d *HeartbeatDetector) Observe(from int) {
	d.mu.Lock()
	d.lastSeen[from] = time.Now()
	delete(d.dead, from)
	d.mu.Unlock()
}

func (d *HeartbeatDetector) check() {
	now := time.Now()
	var newlyDead []int
	d.mu.Lock()
	for _, p := range d.peers {
		if p == d.self || d.dead[p] {
			continue
		}
		if now.Sub(d.lastSeen[p]) > d.timeout {
			d.dead[p] = true
			newlyDead = append(newlyDead, p)
		}
	}
	ws := append([]func(int){}, d.watchers...)
	d.mu.Unlock()
	for _, p := range newlyDead {
		for _, w := range ws {
			w(p)
		}
	}
}

// Alive implements Detector.
func (d *HeartbeatDetector) Alive(site int) bool {
	if site == d.self {
		return true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.dead[site]
}

// Watch implements Detector.
func (d *HeartbeatDetector) Watch(cb func(site int)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.watchers = append(d.watchers, cb)
}
