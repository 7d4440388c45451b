// Package engine executes commit protocols at real sites: event-driven
// coordinators and participants exchanging messages over a transport,
// forcing protocol state to a write-ahead log, detecting site failures, and
// running the paper's termination protocol (backup-coordinator election plus
// the two-phase backup protocol) and recovery protocol.
//
// The engine implements the central-site paradigm for both two-phase commit
// (which blocks when the coordinator fails at the wrong moment) and
// three-phase commit (the paper's nonblocking protocol, with the buffer
// state "prepared"). The local states a site moves through are exactly the
// canonical q → w → (p) → c / a of the paper's FSAs; the wal records are
// their durable images.
//
// A site runs one event loop, the paper's one automaton per site: messages,
// timer fires, vote results and durability notifications all serialize onto
// it, so each transition reads its messages, writes its messages and moves
// to the next local state atomically. Timers multiplex onto one hierarchical
// timer wheel per site (clock.Wheel), with a generation token per arm so a
// stale fire that was already in flight when the timer was re-armed is
// rejected.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nbcommit/internal/clock"
	"nbcommit/internal/failure"
	"nbcommit/internal/trace"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// ProtocolKind selects the commit protocol a site runs.
type ProtocolKind int

const (
	// TwoPhase is the central-site 2PC of slide 15 (blocking).
	TwoPhase ProtocolKind = iota
	// ThreePhase is the central-site 3PC of slide 35 (nonblocking).
	ThreePhase
	// PaxosCommit replicates the coordinator's decision across 2F+1
	// acceptors (Gray & Lamport, "Consensus on Transaction Commit"): one
	// Paxos instance per participant's vote, nonblocking with 2PC-like
	// latency. See paxos.go.
	PaxosCommit
)

// String names the protocol.
func (k ProtocolKind) String() string {
	switch k {
	case ThreePhase:
		return "3PC"
	case PaxosCommit:
		return "Paxos"
	default:
		return "2PC"
	}
}

// ParseProtocol maps a protocol name to its ProtocolKind. It accepts the
// canonical flag spellings ("2pc", "3pc", "paxos") and the String() forms,
// case-insensitively — the single parse table shared by kvnode, dst and
// every other protocol flag, so adding a protocol family is one entry here.
func ParseProtocol(name string) (ProtocolKind, error) {
	switch strings.ToLower(name) {
	case "2pc", "two-phase", "twophase":
		return TwoPhase, nil
	case "3pc", "three-phase", "threephase":
		return ThreePhase, nil
	case "paxos", "paxos-commit", "paxoscommit":
		return PaxosCommit, nil
	}
	return 0, fmt.Errorf("engine: unknown protocol %q (want 2pc, 3pc, or paxos)", name)
}

// Outcome is the resolution of a transaction at a site.
type Outcome int

const (
	// OutcomePending: the protocol has not resolved the transaction yet.
	OutcomePending Outcome = iota
	// OutcomeCommitted: the transaction committed.
	OutcomeCommitted
	// OutcomeAborted: the transaction aborted.
	OutcomeAborted
)

// String returns "pending", "committed" or "aborted".
func (o Outcome) String() string {
	switch o {
	case OutcomeCommitted:
		return "committed"
	case OutcomeAborted:
		return "aborted"
	default:
		return "pending"
	}
}

// ErrBlocked is reported when a 2PC participant is stuck in the uncertainty
// window: it voted YES, the coordinator failed, and every operational cohort
// member is equally uncertain. The transaction can only be resolved when the
// coordinator recovers. 3PC never returns this.
var ErrBlocked = errors.New("engine: transaction blocked awaiting coordinator recovery")

// ErrStopped is returned when the site has been stopped or crashed.
var ErrStopped = errors.New("engine: site is stopped")

// maxCohort bounds the commit cohort so per-transaction vote/ack/DEC-ACK
// collection fits in one word (cohortSet). Sixty-four sites in a single
// commit cohort is far beyond any deployment this engine targets.
const maxCohort = 64

// Resource is the local resource manager whose changes the protocol makes
// atomic. Prepare is the participant's vote: returning an error votes NO.
// The redo image returned by Prepare is forced to the WAL and handed back on
// Commit. ApplyRedo replays a committed redo image during recovery, when the
// resource no longer holds the live transaction.
//
// An empty redo image means "nothing at stake here": a central-site 2PC or
// 3PC participant then votes READ-ONLY, forces nothing, is sent Abort to
// release the transaction, and drops out of the second phase. A resource
// with writes must therefore never return an empty image from Prepare.
//
// Prepare must not block: it runs on the site's event loop (or on Begin's
// caller), so any waiting, such as for locks, belongs in the operations that
// stage the transaction's changes before the commit starts.
//
// Every abort the site learns of reaches Abort, also for a transaction the
// site never voted on, and again after recovery. Aborting a transaction the
// resource does not hold, or no longer holds, must be a no-op.
type Resource interface {
	Prepare(txid string) (redo []byte, err error)
	Commit(txid string, redo []byte) error
	Abort(txid string) error
	ApplyRedo(redo []byte) error
}

// VersionedResource is the optional extension implemented by multi-version
// resources. The engine publishes both series as per-site gauges and exposes
// them via Site.ResourceVersion so snapshot readers can see how far the
// apply path has advanced: CommitTS is the newest commit timestamp stamped
// at decision-apply time, and Watermark is the oldest in-doubt prepare
// reservation (0 when nothing is prepared-but-undecided) — the bound below
// which snapshot reads are final.
type VersionedResource interface {
	Resource
	CommitTS() uint64
	Watermark() uint64
}

// Message kinds exchanged by the engine.
const (
	KindVoteReq   = "VOTE-REQ"   // coordinator: transaction + cohort metadata
	KindYes       = "YES"        // participant vote
	KindNo        = "NO"         // participant vote (unilateral abort)
	KindReadOnly  = "READ-ONLY"  // participant vote: no writes, drop me from phase 2
	KindPrepare   = "PREPARE"    // coordinator: enter the buffer state (3PC)
	KindAck       = "ACK"        // participant: acknowledged prepare
	KindCommit    = "COMMIT"     // final decision
	KindAbort     = "ABORT"      // final decision
	KindTermState = "TERM-STATE" // backup phase 1: move to my state
	KindTermAck   = "TERM-ACK"   // phase-1 acknowledgement
	KindStatusReq = "STATUS-REQ" // 2PC cooperative termination query
	KindStatusRes = "STATUS-RES" // reply: local phase
	KindDecideReq = "DECIDE-REQ" // recovery: what happened to tx?
	KindDecideRes = "DECIDE-RES" // reply: outcome if known
	KindDecAck    = "DEC-ACK"    // participant: decision applied durably (GC)
	KindPx1a      = "PX-1A"      // Paxos Commit: new leader's prepare (ballot)
	KindPx1b      = "PX-1B"      // acceptor: promise + accepted vector
	KindPx2a      = "PX-2A"      // proposer: accept this value for an instance
	KindPx2b      = "PX-2B"      // acceptor: value accepted (to the leader)
	KindPxNudge   = "PX-NUDGE"   // participant: wake the elected Paxos leader
)

// TxMeta describes a transaction's cohort; the coordinator ships it with
// VOTE-REQ so every participant can run termination and recovery without it.
type TxMeta struct {
	Coordinator  int
	Participants []int // full cohort, coordinator included
}

// encodeMeta/decodeMeta serialize TxMeta for message bodies with a flat
// varint layout (coordinator, participant count, participants). The commit
// hot path encodes a meta per message, so this avoids the per-call encoder
// allocations and reflection of a generic codec.
func encodeMeta(m TxMeta) []byte {
	buf := make([]byte, 0, 2+2*len(m.Participants))
	buf = binary.AppendUvarint(buf, uint64(m.Coordinator))
	buf = binary.AppendUvarint(buf, uint64(len(m.Participants)))
	for _, p := range m.Participants {
		buf = binary.AppendUvarint(buf, uint64(p))
	}
	return buf
}

var errBadMeta = errors.New("engine: malformed transaction metadata")

// readMeta decodes a TxMeta from the front of p, returning the bytes
// consumed.
func readMeta(p []byte) (TxMeta, int, error) {
	var m TxMeta
	coord, n := binary.Uvarint(p)
	if n <= 0 {
		return TxMeta{}, 0, errBadMeta
	}
	off := n
	cnt, n := binary.Uvarint(p[off:])
	if n <= 0 || cnt > uint64(len(p)) || cnt > maxCohort {
		return TxMeta{}, 0, errBadMeta
	}
	off += n
	m.Coordinator = int(coord)
	m.Participants = make([]int, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		v, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return TxMeta{}, 0, errBadMeta
		}
		off += n
		m.Participants = append(m.Participants, int(v))
	}
	return m, off, nil
}

func decodeMeta(p []byte) (TxMeta, error) {
	m, n, err := readMeta(p)
	if err != nil {
		return TxMeta{}, err
	}
	if n != len(p) {
		return TxMeta{}, errBadMeta
	}
	return m, nil
}

// phase is the canonical local state of the paper's FSAs.
type phase int

const (
	phaseInit      phase = iota // q: transaction known, not yet voted
	phaseWait                   // w: voted YES, outcome unknown
	phasePrepared               // p: buffer state (3PC only)
	phaseCommitted              // c
	phaseAborted                // a
)

// String names the phase with the paper's state letters.
func (p phase) String() string {
	switch p {
	case phaseInit:
		return "q"
	case phaseWait:
		return "w"
	case phasePrepared:
		return "p"
	case phaseCommitted:
		return "c"
	case phaseAborted:
		return "a"
	default:
		return "?"
	}
}

// cohortSet is a bitset over cohort positions (indexes into
// TxMeta.Participants): the zero-allocation replacement for the per-site
// vote/ack/DEC-ACK maps on the commit hot path.
type cohortSet uint64

func (c cohortSet) has(i int) bool { return i >= 0 && c&(1<<uint(i)) != 0 }

func (c *cohortSet) add(i int) {
	if i >= 0 {
		*c |= 1 << uint(i)
	}
}

// txState is a site's view of one transaction.
type txState struct {
	id    string
	meta  TxMeta
	phase phase
	redo  []byte

	coordinator bool
	votes       cohortSet // coordinator: YES votes received
	acks        cohortSet // coordinator: ACKs received
	decAcks     cohortSet // coordinator: DEC-ACKs received (auto-forget)
	readonly    cohortSet // coordinator: read-only voters, out of phase 2
	ownYes      bool      // coordinator: local prepare succeeded
	forced      uint32    // WAL records forced for this transaction here

	noTrace cohortSet // recovering: cohort members that answered "no trace"

	termAcks   cohortSet // backup coordinator: phase-1 acks
	termActive bool      // backup coordinator: termination underway
	termPhase  phase     // backup coordinator: state broadcast in phase 1
	// fenced is set once this site is under a backup coordinator's control
	// (it acked a TERM-STATE sync, or is the backup itself). From then on
	// only the termination protocol may move the transaction: late
	// normal-protocol messages still in flight from a dead site could
	// otherwise advance us past the state the backup synchronized, and a
	// cascading backup would decide from the drifted state.
	fenced     bool
	statuses   map[int]byte // 2PC cooperative termination: cohort phases
	queried    bool         // 2PC cooperative termination started
	excluded   map[int]bool // sites refusing the backup role (recovering)
	blocked    bool         // 2PC uncertainty: termination could not decide
	recovering bool         // in-doubt after restart; refuses the backup role
	detached   bool         // resource no longer tracks this txn (recovery)
	voting     bool         // participant: local prepare in flight
	peer       bool         // decentralized paradigm (no coordinator)
	dvotes     map[int]byte // decentralized: vote round ('y'/'n' per site)
	dprepares  map[int]bool // decentralized 3PC: prepare round
	px         *paxosTx     // Paxos Commit: acceptor + leader state (paxos.go)

	// timer is the transaction's single protocol/GC timer, an entry in the
	// site's timer wheel; gen is its arm generation. Every (re-)arm and
	// cancel bumps gen, and a timeout event carrying a stale generation is
	// ignored: a fire already collected by the wheel when the transaction
	// changed phase can never drive the re-armed transaction.
	timer clock.WheelTimer
	gen   uint64
	done  chan struct{}

	// Metrics timestamps (zero unless Config.Metrics is set and this site
	// coordinates the transaction): Begin time, vote-round completion,
	// decision time, and whether settle latency was already observed.
	begunAt   time.Time
	votesAt   time.Time
	decidedAt time.Time
	settled   bool
}

func (t *txState) resolved() bool {
	return t.phase == phaseCommitted || t.phase == phaseAborted
}

// onePhase reports whether t is a cohort of one coordinated here, which
// commits in one phase (commitOnePhase).
func (t *txState) onePhase() bool {
	return t.coordinator && len(t.meta.Participants) == 1
}

// cohortIdx maps a site ID to its position in the cohort, or -1. The cohort
// is small and sorted; a linear scan beats a map here.
func (t *txState) cohortIdx(site int) int {
	for i, p := range t.meta.Participants {
		if p == site {
			return i
		}
	}
	return -1
}

// Config assembles a site's dependencies.
type Config struct {
	// ID is the site's identifier (1-based; any positive int).
	ID int
	// Endpoint attaches the site to the network.
	Endpoint transport.Endpoint
	// Log is the site's stable storage.
	Log wal.Log
	// Resource is the local resource manager. Required.
	Resource Resource
	// Detector reports site failures.
	Detector failure.Detector
	// Protocol selects the commit protocol family (2PC, 3PC, or Paxos
	// Commit).
	Protocol ProtocolKind
	// Timeout bounds each wait for a protocol message before suspecting a
	// failure and (for participants) invoking the termination protocol.
	// Zero means clock.DefaultBase. It is the base of clock.NewBudget, which
	// also gives the grace before a settled transaction is forgotten.
	Timeout time.Duration
	// ForgetAfter is ignored: a resolved central-site transaction is always
	// forgotten after the budget's Forget grace (see gc.go).
	//
	// Deprecated: the grace is derived from Timeout by clock.NewBudget; this
	// field exists only so existing callers that set it still compile.
	ForgetAfter time.Duration
	// ReadOnlyVotes is ignored: central-site 2PC and 3PC participants
	// always vote READ-ONLY when Resource.Prepare returns an empty redo
	// image (see Resource).
	//
	// Deprecated: read-only voting is unconditional; this field exists only
	// so existing callers that set it still compile.
	ReadOnlyVotes bool
	// Clock supplies time to every protocol path (timers, deadlines). Nil
	// means the wall clock; deterministic simulation (internal/dst) injects
	// a virtual clock so timeouts fire only when the simulation advances it.
	Clock clock.Clock
	// Deterministic disables the engine's internal concurrency for
	// simulation testing: no event-loop goroutines are started, and every
	// message, timer callback and crash report is processed synchronously on
	// the goroutine that injects it. The simulation driver feeds messages in
	// via Site.Deliver and must use a Clock whose callbacks fire on the
	// driver's goroutine (a virtual clock). Real deployments leave this false.
	Deterministic bool
	// Unhandled, when set, receives every message whose kind the engine
	// does not recognize — heartbeats, application data-plane traffic, and
	// anything else multiplexed onto the site's endpoint. It is called on
	// the goroutine that reads the endpoint: the site's event loop, between
	// batches of protocol events (the injector's goroutine in deterministic
	// mode). Such traffic is never queued behind protocol events, but the
	// loop handles none while Unhandled runs, so keep it fast: hand anything
	// that can block to a goroutine of its own.
	Unhandled func(transport.Message)
	// Trace, when set, records the site's protocol events (votes, state
	// transitions, termination and recovery milestones). Production nodes
	// should use a bounded recorder (trace.NewBounded) so the trace can stay
	// on indefinitely.
	Trace *trace.Recorder
	// Metrics, when set, instruments the commit path: per-phase latency
	// histograms, commit latency, resolution counters, and per-site
	// transaction-table/timer gauges (see NewMetrics). Nil disables all
	// instrumentation at zero cost.
	Metrics *Metrics
}

// Site executes commit protocols for one node, as one event loop over one
// transaction table. Create with New, start with Start, and stop with Stop.
type Site struct {
	id          int
	ep          transport.Endpoint
	log         wal.Log
	slog        wal.StagedLog // non-nil: group-commit staging is active
	res         Resource
	det         failure.Detector
	clk         clock.Clock
	kind        ProtocolKind
	timeoutNs   atomic.Int64  // protocol timeout; read via protoTimeout
	forgetAfter time.Duration // grace before a settled transaction is forgotten
	determin    bool
	trace       *trace.Recorder
	metrics     *Metrics
	unhandled   func(transport.Message)

	wheel *clock.Wheel // every transaction's timer

	mu       sync.Mutex
	txns     map[string]*txState
	pending  []*actGroup // actions deferred behind staged WAL records (FIFO)
	arrivals map[string]*arrival

	events  chan event
	groups  []*actGroup // recycled actGroups, capped
	release []*actGroup // onDurable scratch (event-loop-owned)

	live    atomic.Bool   // Start has run; staged logging may be used
	stopped atomic.Bool   // Stop has run; new events are dropped
	dropped atomic.Uint64 // events discarded after Stop (observability)

	quit chan struct{}
	wg   sync.WaitGroup
}

// evKind tags an event with what it carries; the explicit discriminant is
// what lets every payload — including site ID 0 in a crash report — be a
// legal value.
type evKind uint8

const (
	evMsg     evKind = iota + 1 // a protocol message arrived
	evTimeout                   // a transaction's wheel timer fired
	evCrash                     // the detector reported a site crash
	evVote                      // Begin's own Resource.Prepare finished
	evDurable                   // a staged WAL record's batch became durable
)

// event is an internal occurrence handled on the site's event loop. It is a
// value type: events move through channels and handlers by copy, so the hot
// path never allocates one.
type event struct {
	kind    evKind
	msg     transport.Message // evMsg
	txid    string            // evTimeout
	gen     uint64            // evTimeout: arm generation of the fire
	site    int               // evCrash
	vote    voteResult        // evVote
	durable *actGroup         // evDurable
}

// action is one externally visible effect deferred behind WAL durability:
// either a message send (the overwhelmingly common case, stored flat so no
// closure is allocated per send) or an arbitrary function.
type action struct {
	msg transport.Message
	fn  func()
}

// actGroup collects the externally visible actions deferred behind one
// staged WAL record: message sends, resource commits/aborts and waiter
// wakeups attach to the newest staged record and run only once that
// record's batch is durable, in staging order. This is what lets the
// engine pipeline many transactions through one group-committed log
// without ever acting on a state change that could still be lost — the
// paper's force-before-act discipline, enforced at batch granularity.
type actGroup struct {
	acts    []action
	durable bool
	err     error
}

// arrival wakes WaitOutcome callers waiting for a transaction this site
// has not heard of yet.
type arrival struct {
	ch   chan struct{}
	refs int
}

// voteResult is a Resource.Prepare outcome: this site's vote.
type voteResult struct {
	txid string
	redo []byte
	err  error
}

// votePayload is the durable image a participant forces with its YES vote:
// enough to run termination and recovery without the coordinator.
type votePayload struct {
	Meta TxMeta
	Redo []byte
}

func encodeVotePayload(meta TxMeta, redo []byte) []byte {
	mb := encodeMeta(meta)
	buf := make([]byte, 0, 2+len(mb)+len(redo))
	buf = binary.AppendUvarint(buf, uint64(len(mb)))
	buf = append(buf, mb...)
	buf = append(buf, redo...)
	return buf
}

func decodeVotePayload(p []byte) (votePayload, error) {
	ml, n := binary.Uvarint(p)
	if n <= 0 || ml > uint64(len(p)-n) {
		return votePayload{}, errBadMeta
	}
	meta, err := decodeMeta(p[n : n+int(ml)])
	if err != nil {
		return votePayload{}, err
	}
	v := votePayload{Meta: meta}
	if rest := p[n+int(ml):]; len(rest) > 0 {
		v.Redo = append([]byte(nil), rest...)
	}
	return v, nil
}

// New assembles a site. Call Start to begin processing.
func New(cfg Config) (*Site, error) {
	if cfg.Endpoint == nil || cfg.Log == nil || cfg.Resource == nil || cfg.Detector == nil {
		return nil, errors.New("engine: Endpoint, Log, Resource and Detector are required")
	}
	if cfg.ID <= 0 {
		return nil, fmt.Errorf("engine: site ID must be positive, got %d", cfg.ID)
	}
	budget := clock.NewBudget(cfg.Timeout)
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Wall
	}
	// Group commit needs real concurrency: the deterministic simulator
	// processes everything on one goroutine and must observe each append
	// synchronously, so staging is only used outside deterministic mode.
	var slog wal.StagedLog
	if sl, ok := cfg.Log.(wal.StagedLog); ok && !cfg.Deterministic {
		slog = sl
	}
	s := &Site{
		id:          cfg.ID,
		ep:          cfg.Endpoint,
		log:         cfg.Log,
		slog:        slog,
		res:         cfg.Resource,
		det:         cfg.Detector,
		clk:         clk,
		kind:        cfg.Protocol,
		forgetAfter: budget.Forget,
		determin:    cfg.Deterministic,
		trace:       cfg.Trace,
		metrics:     cfg.Metrics,
		unhandled:   cfg.Unhandled,
		txns:        map[string]*txState{},
		arrivals:    map[string]*arrival{},
		events:      make(chan event, 1024),
		quit:        make(chan struct{}),
	}
	s.timeoutNs.Store(int64(budget.Protocol))
	// The wheel's tick only sets bucketing granularity (fires are exact):
	// a fraction of the protocol timeout keeps cascades rare.
	s.wheel = clock.NewWheel(clk, budget.Protocol/16, s.onTimerFire)
	if s.metrics != nil {
		s.metrics.registerSiteGauges(s)
	}
	return s, nil
}

// ID returns the site's identifier.
func (s *Site) ID() int { return s.id }

// ResourceVersion reports the resource's newest applied commit timestamp and
// its in-doubt watermark when the resource is multi-version; ok is false for
// plain resources.
func (s *Site) ResourceVersion() (commitTS, watermark uint64, ok bool) {
	vr, ok := s.res.(VersionedResource)
	if !ok {
		return 0, 0, false
	}
	return vr.CommitTS(), vr.Watermark(), true
}

// protoTimeout returns the current protocol timeout.
func (s *Site) protoTimeout() time.Duration {
	return time.Duration(s.timeoutNs.Load())
}

// SetTimeout changes the protocol timeout used for every timer armed from
// now on (already armed timers keep their original deadline). Hostile
// simulations use it to skew one site's failure suspicion relative to its
// peers — a clock-skewed or misconfigured detector.
func (s *Site) SetTimeout(d time.Duration) {
	if d <= 0 {
		return
	}
	s.timeoutNs.Store(int64(d))
}

// DroppedEvents reports how many events were discarded because the site had
// stopped — the count behind the engine_events_dropped_total metric. While
// the site is live the count never moves: shutdown is the only path that
// sheds events.
func (s *Site) DroppedEvents() uint64 { return s.dropped.Load() }

// Start launches the site's event loop and subscribes to crash reports. In
// deterministic mode no goroutine is started: events are processed
// synchronously as the simulation driver injects them.
func (s *Site) Start() {
	s.live.Store(true)
	s.det.Watch(s.onCrashReport)
	if s.determin {
		return
	}
	s.wg.Add(1)
	go s.loop()
}

// onCrashReport reacts to a failure report from the detector.
func (s *Site) onCrashReport(site int) {
	s.enqueue(event{kind: evCrash, site: site})
}

// onTimerFire is the site wheel's expiry callback: queue the timeout,
// generation token attached.
func (s *Site) onTimerFire(txid string, gen uint64) {
	s.enqueue(event{kind: evTimeout, txid: txid, gen: gen})
}

// enqueue hands an event to the site's event loop — or, in deterministic
// mode, processes it synchronously on the caller's goroutine (protocol state
// is mutex-protected, and the single-threaded simulation driver is the only
// injector, so handlers never run concurrently). Once the site has stopped,
// events are dropped and counted: losing one while the site is live would be
// a protocol bug. The stopped check comes first so that every enqueue that
// starts after Stop is counted: with both select arms below ready, the send
// could otherwise win and leave the event in a queue nobody drains again.
// An enqueue already past the check when Stop runs can still do that, and
// that event goes uncounted.
func (s *Site) enqueue(ev event) {
	if s.stopped.Load() {
		s.dropped.Add(1)
		return
	}
	if s.determin {
		s.handleEvent(ev)
		return
	}
	select {
	case s.events <- ev:
	case <-s.quit:
		s.dropped.Add(1)
	}
}

// Deliver synchronously processes one inbound message on the caller's
// goroutine. It is the injection point used by deterministic simulation
// (Config.Deterministic); sites wired to a live transport receive messages
// through their endpoint instead.
func (s *Site) Deliver(m transport.Message) {
	if !s.turnAway(m) {
		s.enqueue(event{kind: evMsg, msg: m})
	}
}

// turnAway reports whether m is of a kind the engine does not own, having
// handed it to Unhandled on the calling goroutine if so. Heartbeats and
// data-plane RPCs therefore never sit in the event queue.
func (s *Site) turnAway(m transport.Message) bool {
	if handlerFor(m.Kind) != nil {
		return false
	}
	if s.unhandled != nil {
		s.unhandled(m)
	}
	return true
}

// prepare runs Resource.Prepare for this site's vote. Prepare does not
// block, so it runs on whichever goroutine casts the vote: the event loop
// for a participant, the caller for Begin. Call it without s.mu held.
func (s *Site) prepare(txid string) voteResult {
	redo, err := s.res.Prepare(txid)
	return voteResult{txid: txid, redo: redo, err: err}
}

// Stop shuts the site down gracefully. In-flight transactions stay
// unresolved locally; events still queued when the loop exits are counted
// as dropped.
func (s *Site) Stop() {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	s.wheel.Stop()
	close(s.quit)
	s.wg.Wait()
	for {
		select {
		case <-s.events:
			s.dropped.Add(1)
			continue
		default:
		}
		break
	}
}

// loop is the site's event loop; every state change of every transaction
// happens here. It reads the endpoint and the event queue, turning away
// kinds the engine does not own before they are queued. Events are
// dequeued in batches: once the loop wakes it drains whatever else is
// already queued before going back to sleep, amortizing the channel
// synchronization.
func (s *Site) loop() {
	defer s.wg.Done()
	recv := s.ep.Recv()
	var batch [64]event
	for {
		var ev event
		select {
		case <-s.quit:
			return
		case ev = <-s.events:
		case m, ok := <-recv:
			if !ok {
				// Endpoint closed under us: the site crashed.
				return
			}
			if s.turnAway(m) {
				continue
			}
			ev = event{kind: evMsg, msg: m}
		}
		n := 0
		batch[n] = ev
		n++
		for n < len(batch) {
			select {
			case ev := <-s.events:
				batch[n] = ev
				n++
				continue
			default:
			}
			break
		}
		for i := 0; i < n; i++ {
			s.handleEvent(batch[i])
			batch[i] = event{} // drop payload references until the next use
		}
	}
}

func (s *Site) handleEvent(ev event) {
	switch ev.kind {
	case evMsg:
		s.handleMessage(ev.msg)
	case evTimeout:
		s.handleTimeout(ev.txid, ev.gen)
	case evCrash:
		s.handleCrash(ev.site)
	case evDurable:
		s.onDurable(ev.durable)
	case evVote:
		s.onOwnVote(ev.vote)
	}
}

// handleMessage dispatches a protocol message by kind. Kinds the engine does
// not own never get this far: they are turned away before they are queued.
func (s *Site) handleMessage(m transport.Message) {
	if h := handlerFor(m.Kind); h != nil {
		h(s, m)
	}
}

// handlerFor returns the handler of a protocol message kind, or nil for a
// kind the engine does not own. It is the one list of what the engine owns.
func handlerFor(kind string) func(*Site, transport.Message) {
	switch kind {
	case KindVoteReq:
		return (*Site).onVoteReq
	case KindYes, KindNo, KindReadOnly:
		return (*Site).onVote
	case KindPrepare:
		return (*Site).onPrepareMsg
	case KindAck:
		return (*Site).onAck
	case KindCommit:
		return func(s *Site, m transport.Message) { s.onDecision(m, OutcomeCommitted) }
	case KindAbort:
		return func(s *Site, m transport.Message) { s.onDecision(m, OutcomeAborted) }
	case KindTermState:
		return (*Site).onTermState
	case KindTermAck:
		return (*Site).onTermAck
	case KindStatusReq:
		return (*Site).onStatusReq
	case KindStatusRes:
		return (*Site).onStatusRes
	case KindDecideReq:
		return (*Site).onDecideReq
	case KindDecideRes:
		return (*Site).onDecideRes
	case KindDecAck:
		return (*Site).onDecAck
	case KindPx1a:
		return (*Site).onPx1a
	case KindPx1b:
		return (*Site).onPx1b
	case KindPx2a:
		return (*Site).onPx2a
	case KindPx2b:
		return (*Site).onPx2b
	case KindPxNudge:
		return (*Site).onPxNudge
	case KindDXact:
		return (*Site).onDXact
	case KindDYes, KindDNo:
		return (*Site).onDVote
	case KindDPrepare:
		return (*Site).onDPrepare
	}
	return nil
}

// send transmits a protocol message, ignoring delivery failures (crash-stop
// losses are handled by timeouts and the termination protocol). While any
// staged WAL record is awaiting durability the message is deferred behind
// it: what we say to other sites must never outrun what we have forced to
// stable storage. Requires s.mu held.
func (s *Site) send(to int, kind, txid string, body []byte) {
	m := transport.Message{To: to, Kind: kind, TxID: txid, Body: body}
	if n := len(s.pending); n > 0 {
		g := s.pending[n-1]
		g.acts = append(g.acts, action{msg: m})
		return
	}
	_ = s.ep.Send(m)
}

// act runs fn now when nothing is pending durability, and otherwise
// attaches it to the newest staged WAL record so it runs — on the event
// loop, in order — once that record's batch is durable. fn must not take
// s.mu. Requires s.mu held.
func (s *Site) act(fn func()) {
	if n := len(s.pending); n > 0 {
		g := s.pending[n-1]
		g.acts = append(g.acts, action{fn: fn})
		return
	}
	fn()
}

// onDurable runs on the event loop when a staged record's batch became
// durable; it releases the deferred actions of every group up to the
// newest durable one, preserving FIFO order, and recycles the spent groups.
func (s *Site) onDurable(g *actGroup) {
	if g.err != nil {
		panic(fmt.Sprintf("engine: site %d cannot write WAL: %v", s.id, g.err))
	}
	s.mu.Lock()
	g.durable = true
	run := s.release[:0]
	for len(s.pending) > 0 && s.pending[0].durable {
		run = append(run, s.pending[0])
		s.pending = s.pending[1:]
	}
	if len(s.pending) == 0 {
		s.pending = nil
	}
	s.mu.Unlock()
	for _, g := range run {
		for _, a := range g.acts {
			if a.fn != nil {
				a.fn()
			} else {
				_ = s.ep.Send(a.msg)
			}
		}
	}
	s.mu.Lock()
	for i, g := range run {
		if len(s.groups) < 64 {
			g.acts = g.acts[:0]
			g.durable = false
			s.groups = append(s.groups, g)
		}
		run[i] = nil
	}
	s.release = run[:0]
	s.mu.Unlock()
}

// newGroup takes an actGroup from the site's freelist (or allocates one).
// Requires s.mu held.
func (s *Site) newGroup() *actGroup {
	if n := len(s.groups); n > 0 {
		g := s.groups[n-1]
		s.groups = s.groups[:n-1]
		return g
	}
	return &actGroup{}
}

// record emits a trace event if tracing is enabled.
func (s *Site) record(kind, txid, note string) {
	if s.trace != nil {
		s.trace.Add(s.id, kind, txid, note)
	}
}

// mustLog forces a WAL record; a stable-storage failure is fatal for the
// site (it can no longer uphold its guarantees), surfaced as a panic in
// this reference implementation.
//
// With a group-committing log the record is only staged: volatile protocol
// state may advance immediately, but every externally visible action of
// this handler (and of later handlers) is deferred via act() until the
// record's batch is durable, so the event loop keeps processing — and
// staging further records into the same batch — while the fsync runs.
// Before Start (recovery) and in deterministic mode the append is
// synchronous. Requires s.mu held.
func (s *Site) mustLog(rec wal.Record) {
	if t, ok := s.txns[rec.TxID]; ok {
		t.forced++
	}
	if s.slog != nil && s.live.Load() {
		g := s.newGroup()
		s.pending = append(s.pending, g)
		var stagedAt time.Time
		if s.metrics != nil {
			stagedAt = s.clk.Now()
		}
		s.slog.AppendStaged(rec, func(_ uint64, err error) {
			if s.metrics != nil {
				s.metrics.forceWait.Observe(s.clk.Now().Sub(stagedAt))
			}
			g.err = err
			s.enqueue(event{kind: evDurable, durable: g})
		})
		return
	}
	var start time.Time
	if s.metrics != nil {
		start = s.clk.Now()
	}
	if _, err := s.log.Append(rec); err != nil {
		panic(fmt.Sprintf("engine: site %d cannot write WAL: %v", s.id, err))
	}
	if s.metrics != nil {
		s.metrics.forceWait.Observe(s.clk.Now().Sub(start))
	}
}

// mustLogLazy appends a WAL record without forcing it: the record is ordered
// into the log but rides a later batch, no actGroup is created, and nothing
// is deferred behind it — subsequent sends and acts run immediately. Only
// records whose loss recovery can tolerate may be logged this way: presumed
// (2PC) abort-path records, whose absence recovery reads as abort, and end
// records, whose loss merely re-runs idempotent garbage collection. A closed
// log is tolerated (shutdown race): the record was best-effort by contract.
// Requires s.mu held.
func (s *Site) mustLogLazy(rec wal.Record) {
	if err := s.log.AppendLazy(rec); err != nil && !errors.Is(err, wal.ErrClosed) {
		panic(fmt.Sprintf("engine: site %d cannot write WAL: %v", s.id, err))
	}
}

// presumedAbort reports whether this transaction's abort path runs under the
// presumed-abort discipline: 2PC, central-site paradigm. The recovery rule —
// no committed record means abort — makes every abort-path force redundant:
// the coordinator keeps no trace of aborted transactions at all, and
// participants append their abort records lazily. Requires s.mu held.
func (s *Site) presumedAbort(t *txState) bool {
	return s.kind == TwoPhase && !t.peer
}

// armTimer (re)starts the transaction's protocol timer. The new arm's
// generation invalidates any timeout event from a previous arm that is
// still in flight. Requires s.mu held.
func (s *Site) armTimer(t *txState, d time.Duration) {
	t.timer.Stop()
	t.gen++
	t.timer = s.wheel.Schedule(d, t.id, t.gen)
}

// stopTimer cancels the transaction's timer and invalidates in-flight
// fires. Requires s.mu held.
func (s *Site) stopTimer(t *txState) {
	t.timer.Stop()
	t.timer = clock.WheelTimer{}
	t.gen++
}

// Outcome reports the site's local resolution of a transaction.
// ErrBlocked is returned while a 2PC participant sits in the uncertainty
// window with no way to decide.
func (s *Site) Outcome(txid string) (Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[txid]
	if !ok {
		return OutcomePending, fmt.Errorf("engine: site %d does not know transaction %s", s.id, txid)
	}
	return outcomeOf(t)
}

// outcomeOf reads a transaction record's local outcome: the one
// phase-to-outcome rule behind Outcome, WaitOutcome and Handle.Wait.
// Requires s.mu held.
func outcomeOf(t *txState) (Outcome, error) {
	switch t.phase {
	case phaseCommitted:
		return OutcomeCommitted, nil
	case phaseAborted:
		return OutcomeAborted, nil
	default:
		if t.blocked {
			return OutcomePending, ErrBlocked
		}
		return OutcomePending, nil
	}
}

// expiry returns a channel closed once d has elapsed on the site's clock,
// and the timer to stop on return. An AfterFunc, not clk.After: a timer
// channel would stay live in the runtime for the full timeout — under load,
// tens of thousands of them — long after the typical wait returns in
// milliseconds.
func (s *Site) expiry(d time.Duration) (<-chan struct{}, clock.Timer) {
	ch := make(chan struct{})
	return ch, s.clk.AfterFunc(d, func() { close(ch) })
}

// await blocks until t resolves, timedOut closes or the site stops, and then
// reads t's outcome.
func (s *Site) await(t *txState, timedOut <-chan struct{}) (Outcome, error) {
	select {
	case <-t.done:
	case <-timedOut:
	case <-s.quit:
		return OutcomePending, ErrStopped
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return outcomeOf(t)
}

// WaitOutcome blocks until the transaction resolves at this site or the
// timeout elapses. It is for observers and participants: a caller that
// started the transaction holds its Handle instead. A transaction this site
// has not heard of yet is waited for (its VOTE-REQ may still be in flight)
// through an arrival notification — no polling. A blocked 2PC transaction
// keeps WaitOutcome waiting (it may unblock when the coordinator recovers);
// use Outcome to poll for ErrBlocked. A call made after the site has
// forgotten the transaction cannot know its outcome: it waits out the
// timeout and reports the transaction unknown.
func (s *Site) WaitOutcome(txid string, timeout time.Duration) (Outcome, error) {
	timedOut, tm := s.expiry(timeout)
	defer tm.Stop()
	for {
		s.mu.Lock()
		if t, ok := s.txns[txid]; ok {
			s.mu.Unlock()
			return s.await(t, timedOut)
		}
		a := s.arrivals[txid]
		if a == nil {
			a = &arrival{ch: make(chan struct{})}
			s.arrivals[txid] = a
		}
		a.refs++
		s.mu.Unlock()
		select {
		case <-a.ch:
			s.releaseArrival(txid, a)
		case <-timedOut:
			s.releaseArrival(txid, a)
			return OutcomePending, fmt.Errorf("engine: site %d does not know transaction %s", s.id, txid)
		case <-s.quit:
			s.releaseArrival(txid, a)
			return OutcomePending, ErrStopped
		}
	}
}

// releaseArrival drops one waiter's interest in a transaction's arrival,
// removing the notification entry with the last reference so unknown
// transaction IDs cannot accumulate.
func (s *Site) releaseArrival(txid string, a *arrival) {
	s.mu.Lock()
	a.refs--
	if a.refs == 0 && s.arrivals[txid] == a {
		delete(s.arrivals, txid)
	}
	s.mu.Unlock()
}

// Phase returns the canonical local state letter (q/w/p/c/a) of the
// transaction at this site, or "?" if unknown. Exposed for tests and the
// termination protocol's observers.
func (s *Site) Phase(txid string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.txns[txid]; ok {
		return t.phase.String()
	}
	return "?"
}

// resolve finishes a transaction locally: forces the outcome record, then
// applies the outcome to the resource and wakes waiters — both deferred
// behind the record's durability when the log group-commits, because they
// are externally visible (a woken client may immediately read the data).
// Requires s.mu held.
func (s *Site) resolve(t *txState, o Outcome) {
	if t.resolved() {
		return
	}
	s.observeResolve(t, o)
	id, redo, detached := t.id, t.redo, t.detached
	if o == OutcomeCommitted {
		s.record("commit", t.id, "")
		s.mustLog(wal.Record{Type: wal.RecCommitted, TxID: t.id, Payload: t.redo})
		t.phase = phaseCommitted
		s.act(func() {
			if detached {
				// The resource no longer tracks this transaction (it was
				// rebuilt by recovery); apply the redo image directly.
				if len(redo) > 0 {
					if err := s.res.ApplyRedo(redo); err != nil {
						panic(fmt.Sprintf("engine: site %d cannot redo %s: %v", s.id, id, err))
					}
				}
			} else if err := s.res.Commit(id, redo); err != nil {
				panic(fmt.Sprintf("engine: site %d cannot commit prepared transaction %s: %v", s.id, id, err))
			}
		})
	} else {
		s.record("abort", t.id, "")
		switch {
		case s.presumedAbort(t) && t.coordinator, t.onePhase():
			// Presumed abort: the coordinator writes nothing for an aborted
			// transaction. Recovery finding no trace presumes abort, and any
			// in-doubt participant that asks is answered with the no-trace
			// status ('n'), which from the coordinator means abort. A cohort
			// of one has nobody to ask and leaves no trace under any family.
		case s.presumedAbort(t):
			// Participant abort records are only an inquiry shortcut under
			// the presumption; losing one re-runs the (cheap) inquiry.
			s.mustLogLazy(wal.Record{Type: wal.RecAborted, TxID: t.id})
		default:
			s.mustLog(wal.Record{Type: wal.RecAborted, TxID: t.id})
		}
		t.phase = phaseAborted
		// Detached records abort too: a participant whose VOTE-REQ was lost
		// may still hold locks its writes took.
		s.act(func() { _ = s.res.Abort(id) })
	}
	t.blocked = false
	s.stopTimer(t)
	done := t.done
	s.act(func() { close(done) })
	s.observeForced(t, o)
	s.scheduleGC(t)
}

// observeResolve records resolution metrics for a transaction about to be
// resolved: outcome counters at every role, and — at the coordinator —
// begin→decision latency plus the 3PC ack-round phase. Requires s.mu held.
func (s *Site) observeResolve(t *txState, o Outcome) {
	if s.metrics == nil {
		return
	}
	now := s.clk.Now()
	t.decidedAt = now
	if o == OutcomeCommitted {
		s.metrics.committed.Inc()
	} else {
		s.metrics.aborted.Inc()
	}
	if !t.coordinator || t.begunAt.IsZero() {
		return
	}
	if o == OutcomeCommitted {
		s.metrics.commit.Observe(now.Sub(t.begunAt))
	} else {
		s.metrics.abort.Observe(now.Sub(t.begunAt))
	}
	if s.kind == ThreePhase && !t.votesAt.IsZero() {
		s.metrics.acks.Observe(now.Sub(t.votesAt))
	}
}

// observeForced records how many WAL records this site forced for the
// transaction, sampled at resolution (the end record is lazy and never
// counts). The histogram abuses the duration-valued Histogram as a plain
// integer distribution: one "nanosecond" is one forced record. Requires
// s.mu held and t.phase final.
func (s *Site) observeForced(t *txState, o Outcome) {
	if s.metrics == nil {
		return
	}
	s.metrics.ForcedPerCommit(t.coordinator, o == OutcomeCommitted).Observe(time.Duration(t.forced))
}

// observeSettle records decision→full-DEC-ACK latency once per coordinated
// transaction, when the last participant's acknowledgement arrives.
// Requires s.mu held.
func (s *Site) observeSettle(t *txState) {
	if s.metrics == nil || t.settled || t.decidedAt.IsZero() {
		return
	}
	t.settled = true
	s.metrics.settle.Observe(s.clk.Now().Sub(t.decidedAt))
}

// tx returns (creating if needed) the transaction record. Requires s.mu
// held.
func (s *Site) tx(txid string) *txState {
	t, ok := s.txns[txid]
	if !ok {
		t = &txState{id: txid, phase: phaseInit, done: make(chan struct{})}
		s.txns[txid] = t
		if a, ok := s.arrivals[txid]; ok {
			close(a.ch)
			delete(s.arrivals, txid)
		}
	}
	return t
}

// Participants returns the commit cohort of a transaction this site tracks
// (coordinator included), or nil if the site does not know the transaction.
// Exposed for observability and for tests asserting cohort sizes — e.g.
// that a single-shard transaction engaged exactly one site.
func (s *Site) Participants(txid string) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[txid]
	if !ok {
		return nil
	}
	return append([]int(nil), t.meta.Participants...)
}

// Transactions returns the IDs of the transactions this site currently
// tracks, for observability and tests.
func (s *Site) Transactions() []string {
	var out []string
	s.mu.Lock()
	for id := range s.txns {
		out = append(out, id)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}
