package transport

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// DelayKind selects the shape of a link's propagation-delay distribution.
type DelayKind int

const (
	// DelayNone delivers instantly — the classic SimNetwork behavior, and
	// the default for every link with no model installed.
	DelayNone DelayKind = iota
	// DelayFixed adds a constant delay to every message.
	DelayFixed
	// DelayUniform draws each delay uniformly from [A, B].
	DelayUniform
	// DelayLognormal draws each delay from a lognormal distribution with
	// median A and log-space standard deviation Sigma — the classic
	// heavy-tailed WAN latency shape.
	DelayLognormal
)

// DelayDist describes a per-message propagation delay. All randomness comes
// from the network's seeded generator, never from wall time, so a fixed seed
// reproduces the exact same delay sequence.
type DelayDist struct {
	Kind  DelayKind
	A     time.Duration // Fixed: the delay. Uniform: min. Lognormal: median.
	B     time.Duration // Uniform: max.
	Sigma float64       // Lognormal: log-space standard deviation.
}

// FixedDelay delivers every message after exactly d.
func FixedDelay(d time.Duration) DelayDist {
	return DelayDist{Kind: DelayFixed, A: d}
}

// UniformDelay draws each delay uniformly from [min, max].
func UniformDelay(min, max time.Duration) DelayDist {
	return DelayDist{Kind: DelayUniform, A: min, B: max}
}

// LognormalDelay draws each delay from a lognormal distribution with the
// given median and log-space standard deviation sigma (0.3–0.5 gives a
// realistic WAN tail).
func LognormalDelay(median time.Duration, sigma float64) DelayDist {
	return DelayDist{Kind: DelayLognormal, A: median, Sigma: sigma}
}

// sample draws one delay. rng must not be nil unless Kind is DelayNone or
// DelayFixed.
func (d DelayDist) sample(rng *rand.Rand) time.Duration {
	switch d.Kind {
	case DelayFixed:
		return d.A
	case DelayUniform:
		if d.B <= d.A {
			return d.A
		}
		return d.A + time.Duration(rng.Int63n(int64(d.B-d.A)+1))
	case DelayLognormal:
		return time.Duration(float64(d.A) * math.Exp(rng.NormFloat64()*d.Sigma))
	}
	return 0
}

// LinkModel is the behavior of one directed link: a delay distribution, an
// i.i.d. loss rate, and a reorder window. The zero value is the perfect
// link: instant, lossless, FIFO.
type LinkModel struct {
	// Delay is drawn once per message at send time.
	Delay DelayDist
	// Loss is the probability in [0,1) that a message is lost on the link
	// (counted under SimDropLoss).
	Loss float64
	// ReorderWindow adds uniform [0, W) jitter to each message's delivery
	// time, so messages on the same link can overtake each other without
	// any bandwidth modelling.
	ReorderWindow time.Duration
}

// SimDropCause classifies why the SimNetwork dropped a message, mirroring
// the TCP transport's transport_dropped_total{cause} split.
type SimDropCause int

const (
	// SimDropLoss: random loss drawn from the link's loss rate, or a
	// message the drop predicate (SetDrop) matched.
	SimDropLoss SimDropCause = iota
	// SimDropPartition: the directed link was blocked at send time.
	SimDropPartition
	// SimDropCrash: the destination was down at send time, or the message
	// was purged from the queue when its destination crashed.
	SimDropCrash
	numSimDropCauses
)

// SimDropCauses lists every cause, for metric registration loops.
var SimDropCauses = [numSimDropCauses]SimDropCause{
	SimDropLoss, SimDropPartition, SimDropCrash,
}

func (c SimDropCause) String() string {
	switch c {
	case SimDropLoss:
		return "loss"
	case SimDropPartition:
		return "partition"
	case SimDropCrash:
		return "crash"
	}
	return "unknown"
}

// simMsg is one captured message plus the virtual instant it becomes
// deliverable. A zero due time means "immediately" (no clock installed or a
// zero-delay link).
type simMsg struct {
	m   Message
	due time.Time
}

// SimNetwork is the in-memory network every in-process cluster runs on.
// Instead of delivering messages into endpoint inboxes, every Send is
// captured into a single pending queue in send order, and the queue's
// consumer hands each message to its destination site explicitly
// (engine.Site.Deliver). In simulation testing (internal/dst) that consumer
// is a scheduler: it takes the deliverable messages with Take, choosing the
// delivery order, which makes every interleaving of a cluster run
// reproducible from a seed. A live cluster, whose sites run their own event
// loops, runs Serve instead: it delivers every message as soon as it is
// deliverable, in send order.
//
// On top of the capture queue sits an optional hostile network model, all of
// it deterministic:
//
//   - per-link delay distributions (UseClock + SetLink): a message sent at
//     virtual time t with sampled delay d becomes deliverable at t+d, so the
//     scheduler must advance the virtual clock (NextDue) before Take sees it;
//   - per-link i.i.d. loss and reorder windows, driven by the seeded
//     generator (Seed) rather than wall-clock entropy;
//   - asymmetric partitions (BlockOneWay): each direction of a link is cut
//     independently; sends into a cut link are dropped, while messages
//     already in flight are held and flushed — not dropped — when the link
//     heals;
//   - gray sites (SetGray): every link touching the site runs N× slower,
//     while Alive still reports true — slow-but-alive, the failure mode
//     timeout-based detectors misjudge.
//
// A drop predicate (SetDrop) loses chosen messages at send time.
//
// SimNetwork also plays the paper's reliable failure reporter: Alive and
// Watch expose exactly the perfect-detector view of its crash state, so a
// SimNetwork can serve directly as a cluster's failure.Detector.
type SimNetwork struct {
	mu       sync.Mutex
	attached map[int]bool
	down     map[int]bool
	reported map[int]bool // crash watchers already notified
	blocked  map[[2]int]bool
	queue    []simMsg
	watchers []func(site int)
	drop     func(Message) bool
	wake     chan struct{} // one slot: a send or a heal nudges Serve
	sent     uint64
	drops    [numSimDropCauses]uint64

	now     func() time.Time // nil: no latency modelling, everything instant
	rng     *rand.Rand
	defLink LinkModel
	links   map[[2]int]LinkModel
	gray    map[int]float64
}

// NewSimNetwork returns an empty deterministic network with perfect links.
func NewSimNetwork() *SimNetwork {
	return &SimNetwork{
		attached: map[int]bool{},
		down:     map[int]bool{},
		reported: map[int]bool{},
		blocked:  map[[2]int]bool{},
		links:    map[[2]int]LinkModel{},
		gray:     map[int]float64{},
		wake:     make(chan struct{}, 1),
		rng:      rand.New(rand.NewSource(1)),
	}
}

// UseClock installs the virtual time source used to stamp message delivery
// deadlines. Without a clock every link is instant regardless of its delay
// model. The function must be cheap and is called with the network lock
// held; clock.Virtual's Now qualifies.
func (n *SimNetwork) UseClock(now func() time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.now = now
}

// Seed resets the generator behind loss, delay sampling and reorder jitter.
// Same seed + same send sequence = same delivery schedule.
func (n *SimNetwork) Seed(seed int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rng = rand.New(rand.NewSource(seed))
}

// SetDefaultLink installs the model used by every directed link that has no
// specific model.
func (n *SimNetwork) SetDefaultLink(m LinkModel) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defLink = m
}

// SetLink installs the model for the directed link from -> to.
func (n *SimNetwork) SetLink(from, to int, m LinkModel) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[[2]int{from, to}] = m
}

// SetGray marks a site gray: every message to or from it takes factor times
// its sampled link delay, while Alive keeps reporting true — the site is
// slow, not dead. factor <= 1 clears the gray state.
func (n *SimNetwork) SetGray(id int, factor float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if factor <= 1 {
		delete(n.gray, id)
		return
	}
	n.gray[id] = factor
}

// SetDrop installs a predicate consulted for every message sent to a live
// site across an open link; a message it matches is lost, counted under
// SimDropLoss. Pass nil to clear. What is already in flight stays. The
// predicate runs with the network lock held, so it must not call back into
// the network.
func (n *SimNetwork) SetDrop(f func(Message) bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.drop = f
}

// Endpoint attaches (or re-attaches) site id. Re-attaching after a crash
// models the site restarting: it becomes operational again with no queued
// inbound messages (those were dropped with the crash).
func (n *SimNetwork) Endpoint(id int) Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.attached[id] = true
	delete(n.down, id)
	delete(n.reported, id)
	return &simEndpoint{net: n, id: id}
}

// Silence marks a site failed without notifying crash watchers yet: its
// sends stop escaping and nothing more reaches it. A crash-point hook uses
// this mid-transition ("the site is dead as of this WAL append"); the
// scheduler completes the crash with Crash between steps, which is when the
// paper's failure report goes out.
func (n *SimNetwork) Silence(id int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down[id] = true
}

// Crash marks a site failed, discards pending messages addressed to it (its
// inbox dies with it; messages it already sent stay in flight), and notifies
// every crash watcher — the network's reliable failure report. Safe to call
// after Silence; the watchers still fire exactly once per crash.
func (n *SimNetwork) Crash(id int) {
	n.mu.Lock()
	if n.reported[id] {
		n.mu.Unlock()
		return
	}
	n.down[id] = true
	n.reported[id] = true
	kept := n.queue[:0]
	for _, q := range n.queue {
		if q.m.To == id {
			n.drops[SimDropCrash]++
			continue
		}
		kept = append(kept, q)
	}
	n.queue = kept
	watchers := append([]func(int){}, n.watchers...)
	n.mu.Unlock()
	for _, w := range watchers {
		w(id)
	}
}

// Alive reports whether the site is attached and not crashed — the perfect
// failure detector of the paper's model. Gray sites are alive: slowness is
// invisible to the detector, which is the point of modelling them.
func (n *SimNetwork) Alive(id int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.attached[id] && !n.down[id]
}

// Watch registers a crash callback, satisfying failure.Detector.
func (n *SimNetwork) Watch(cb func(site int)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.watchers = append(n.watchers, cb)
}

// Block cuts the link between two sites in both directions. New sends across
// it are lost (the senders' retransmissions recover them after Unblock);
// messages already in flight are held and delivered after the heal.
func (n *SimNetwork) Block(a, b int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[[2]int{a, b}] = true
	n.blocked[[2]int{b, a}] = true
}

// Unblock restores the link between two sites in both directions, flushing
// (not dropping) any held in-flight messages.
func (n *SimNetwork) Unblock(a, b int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, [2]int{a, b})
	delete(n.blocked, [2]int{b, a})
	n.nudgeLocked()
}

// BlockOneWay cuts only the from -> to direction — the asymmetric partition:
// from's messages to to are lost while to's messages to from still deliver.
func (n *SimNetwork) BlockOneWay(from, to int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[[2]int{from, to}] = true
}

// UnblockOneWay restores the from -> to direction.
func (n *SimNetwork) UnblockOneWay(from, to int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, [2]int{from, to})
	n.nudgeLocked()
}

// nowLocked reads the virtual clock, or zero when none is installed.
// Requires n.mu held.
func (n *SimNetwork) nowLocked() time.Time {
	if n.now == nil {
		return time.Time{}
	}
	return n.now()
}

// deliverableLocked reports whether queue entry q can be handed to the
// scheduler now: its due instant has passed and its link is not cut. A held
// message (cut link) stays queued so a heal flushes it. Requires n.mu held.
func (n *SimNetwork) deliverableLocked(q simMsg, now time.Time) bool {
	if n.blocked[[2]int{q.m.From, q.m.To}] {
		return false
	}
	return q.due.IsZero() || !q.due.After(now)
}

// nthLocked returns the queue index of the i-th deliverable message, in send
// order, or -1 if there are not that many. It allocates nothing, so Serve
// adds no allocation to a live commit. Requires n.mu held.
func (n *SimNetwork) nthLocked(i int) int {
	now := n.nowLocked()
	for j, q := range n.queue {
		if !n.deliverableLocked(q, now) {
			continue
		}
		if i == 0 {
			return j
		}
		i--
	}
	return -1
}

// Pending reports the number of captured messages deliverable right now —
// due instant reached, link open. Messages still "on the wire" (delayed or
// held behind a cut link) are counted by InFlight instead.
func (n *SimNetwork) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := n.nowLocked()
	ready := 0
	for _, q := range n.queue {
		if n.deliverableLocked(q, now) {
			ready++
		}
	}
	return ready
}

// inFlight reports every captured, undelivered message, deliverable or not.
func (n *SimNetwork) inFlight() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.queue)
}

// NextDue returns the earliest future instant at which a currently
// undeliverable message becomes deliverable, so a scheduler knows how far to
// advance the virtual clock. Messages held behind a cut link have no due
// instant (only a heal releases them) and are excluded.
func (n *SimNetwork) NextDue() (time.Time, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var best time.Time
	found := false
	for _, q := range n.queue {
		if q.due.IsZero() || n.blocked[[2]int{q.m.From, q.m.To}] {
			continue
		}
		if !found || q.due.Before(best) {
			best, found = q.due, true
		}
	}
	return best, found
}

// peek returns the i-th deliverable message without removing it.
func (n *SimNetwork) peek(i int) (Message, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	j := n.nthLocked(i)
	if j < 0 {
		return Message{}, false
	}
	return n.queue[j].m, true
}

// Take removes and returns the i-th deliverable message; the scheduler then
// delivers it (or drops it, if the destination crashed meanwhile).
func (n *SimNetwork) Take(i int) (Message, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	j := n.nthLocked(i)
	if j < 0 {
		return Message{}, false
	}
	m := n.queue[j].m
	copy(n.queue[j:], n.queue[j+1:])
	n.queue[len(n.queue)-1] = simMsg{}
	n.queue = n.queue[:len(n.queue)-1]
	return m, true
}

// nudgeLocked wakes Serve without blocking. Requires n.mu held.
func (n *SimNetwork) nudgeLocked() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// Serve runs a live cluster: until stop is closed it hands every deliverable
// message, in send order, to deliver (normally the destination's
// engine.Site.Deliver), and sleeps while none is. A send, or a heal that
// releases held messages, wakes it. deliver runs without the network lock,
// one message at a time, so a deliver that blocks holds up every later
// message, as a shared wire would. A network driven by Serve has no clock
// installed (UseClock): a delayed message would wait for the next wake-up.
// Run at most one Serve per network, and no Take beside it.
func (n *SimNetwork) Serve(deliver func(Message), stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if m, ok := n.Take(0); ok {
			deliver(m)
			continue
		}
		select {
		case <-n.wake:
		case <-stop:
			return
		}
	}
}

// Stats returns the number of messages captured and dropped (all causes) so
// far.
func (n *SimNetwork) Stats() (sent, dropped uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, d := range n.drops {
		dropped += d
	}
	return n.sent, dropped
}

// droppedCause returns how many messages were dropped for one cause. The
// causes sum to the dropped total reported by Stats.
func (n *SimNetwork) droppedCause(c SimDropCause) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c < 0 || c >= numSimDropCauses {
		return 0
	}
	return n.drops[c]
}

// linkLocked returns the model of the directed link from -> to. Requires
// n.mu held.
func (n *SimNetwork) linkLocked(from, to int) LinkModel {
	if m, ok := n.links[[2]int{from, to}]; ok {
		return m
	}
	return n.defLink
}

type simEndpoint struct {
	net *SimNetwork
	id  int
}

func (e *simEndpoint) ID() int { return e.id }

// Recv returns nil: no site reads an inbox here. The queue's consumer
// (a scheduler's Take, or Serve for live sites) hands each message to its
// destination through engine.Site.Deliver.
func (e *simEndpoint) Recv() <-chan Message { return nil }

func (e *simEndpoint) Send(m Message) error {
	m.From = e.id
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.attached[e.id] || n.down[e.id] {
		return ErrClosed
	}
	if !n.attached[m.To] || n.down[m.To] {
		n.drops[SimDropCrash]++
		return nil // crash-stop: the message is lost, not an error
	}
	if n.blocked[[2]int{e.id, m.To}] {
		n.drops[SimDropPartition]++
		return nil // partitioned: lost on the cut link
	}
	if n.drop != nil && n.drop(m) {
		n.drops[SimDropLoss]++
		return nil // lost by the drop predicate
	}
	lm := n.linkLocked(e.id, m.To)
	if lm.Loss > 0 && n.rng.Float64() < lm.Loss {
		n.drops[SimDropLoss]++
		return nil
	}
	q := simMsg{m: m}
	if now := n.nowLocked(); !now.IsZero() {
		d := lm.Delay.sample(n.rng)
		if lm.ReorderWindow > 0 {
			d += time.Duration(n.rng.Int63n(int64(lm.ReorderWindow)))
		}
		if f, ok := n.gray[e.id]; ok {
			d = time.Duration(float64(d) * f)
		}
		if f, ok := n.gray[m.To]; ok {
			d = time.Duration(float64(d) * f)
		}
		q.due = now.Add(d)
	}
	n.queue = append(n.queue, q)
	n.sent++
	n.nudgeLocked()
	return nil
}

func (e *simEndpoint) Close() error {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.attached, e.id)
	return nil
}
