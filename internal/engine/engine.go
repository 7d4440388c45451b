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
// A site's runtime is a set of shards, each an independent event loop owning
// a txid-hash partition of the transaction table: messages, timer fires,
// vote results and durability notifications for a transaction all serialize
// onto its shard, so per-transaction state needs no cross-shard
// coordination. Timers multiplex onto one hierarchical timer wheel per site
// (clock.Wheel), with a generation token per arm so a stale fire that was
// already in flight when the timer was re-armed is rejected.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
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
// Prepare must not block: it runs on the shard's event loop (or on Begin's
// caller), so any waiting, such as for locks, belongs in the operations that
// stage the transaction's changes before the commit starts.
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
	// Zero means 200ms.
	Timeout time.Duration
	// ForgetAfter, when positive, garbage-collects resolved transactions
	// in the central-site paradigm: a participant acknowledges the
	// decision (DEC-ACK) once its outcome record is durable and forgets
	// the transaction after this grace period; the coordinator re-sends
	// the decision until every participant has acknowledged it — crashed
	// participants included, which re-acknowledge after recovery — and
	// only then forgets, so some site always knows the outcome while
	// anyone may still ask. Zero keeps transactions until Site.Forget is
	// called. Decentralized (peer) transactions have no acknowledgement
	// collection point and are never auto-forgotten.
	ForgetAfter time.Duration
	// ReadOnlyVotes enables the read-only participant optimization (2PC and
	// 3PC): a participant whose Resource.Prepare returns an empty redo image
	// answers the vote request with READ-ONLY, forces nothing to its WAL,
	// releases the resource immediately and drops out of the second phase
	// entirely — the coordinator skips it in every later round. Off by
	// default: only enable it for resources where an empty redo image
	// genuinely means "this site has nothing at stake in the outcome".
	ReadOnlyVotes bool
	// Shards is the number of event-loop workers, each owning a txid-hash
	// partition of the transaction table (rounded up to a power of two).
	// Zero means GOMAXPROCS — or one in deterministic mode, where shards
	// share the injector's goroutine anyway.
	Shards int
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
	// anything else multiplexed onto the site's endpoint. It is called
	// straight from the goroutine that reads the endpoint (the injector's in
	// deterministic mode), never from behind a shard's event queue, so such
	// traffic neither waits for protocol events nor delays them. Keep it
	// fast: hand anything that can block to a goroutine of its own.
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

// Site executes commit protocols for one node. Create with New, start with
// Start, and stop with Stop (graceful) or Crash (fault injection). Protocol
// state lives in the site's shards; the Site itself holds only what is
// shared across them.
type Site struct {
	id        int
	ep        transport.Endpoint
	det       failure.Detector
	clk       clock.Clock
	kind      ProtocolKind
	timeoutNs atomic.Int64 // protocol timeout; read via protoTimeout
	forget    time.Duration
	determin  bool
	metrics   *Metrics
	unhandled func(transport.Message)

	shards    []*shard
	shardMask uint32
	wheel     *clock.Wheel // all shards' transaction timers, one per site

	live    atomic.Bool   // Start has run; staged logging may be used
	stopped atomic.Bool   // Stop has run; new events are dropped
	dropped atomic.Uint64 // events discarded after Stop (observability)

	quit chan struct{}
	wg   sync.WaitGroup
}

// shard owns one txid-hash partition of a site's transaction table and the
// event loop that serializes all activity on it. The site's dependencies
// are duplicated onto every shard so handlers never indirect through the
// Site on the hot path.
type shard struct {
	site *Site

	id          int
	ep          transport.Endpoint
	log         wal.Log
	slog        wal.StagedLog // non-nil: group-commit staging is active
	lazy        wal.LazyLog   // non-nil: lazy (non-forced) appends are supported
	res         Resource
	det         failure.Detector
	kind        ProtocolKind
	forgetAfter time.Duration
	clk         clock.Clock
	determin    bool
	roVotes     bool
	trace       *trace.Recorder
	metrics     *Metrics

	mu       sync.Mutex
	txns     map[string]*txState
	pending  []*actGroup // actions deferred behind staged WAL records (FIFO)
	arrivals map[string]*arrival

	events chan event
	// recv, set only on single-shard sites, lets the one event loop select
	// on the endpoint directly instead of paying a demux hop per message.
	recv <-chan transport.Message

	groups  []*actGroup // recycled actGroups, capped
	release []*actGroup // onDurable scratch (event-loop-owned)
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

// event is an internal occurrence handled on a shard's event loop. It is a
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
	to := cfg.Timeout
	if to == 0 {
		to = 200 * time.Millisecond
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Wall
	}
	n := cfg.Shards
	if n <= 0 {
		if cfg.Deterministic {
			n = 1
		} else {
			n = runtime.GOMAXPROCS(0)
		}
	}
	n = ceilPow2(n)
	s := &Site{
		id:        cfg.ID,
		ep:        cfg.Endpoint,
		det:       cfg.Detector,
		clk:       clk,
		kind:      cfg.Protocol,
		forget:    cfg.ForgetAfter,
		determin:  cfg.Deterministic,
		metrics:   cfg.Metrics,
		unhandled: cfg.Unhandled,
		shardMask: uint32(n - 1),
		quit:      make(chan struct{}),
	}
	s.timeoutNs.Store(int64(to))
	// The wheel's tick only sets bucketing granularity (fires are exact):
	// a fraction of the protocol timeout keeps cascades rare.
	tick := to / 16
	if tick > 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	s.wheel = clock.NewWheel(clk, tick, s.onTimerFire)
	// Group commit needs real concurrency: the deterministic simulator
	// processes everything on one goroutine and must observe each append
	// synchronously, so staging is only used outside deterministic mode.
	var slog wal.StagedLog
	if sl, ok := cfg.Log.(wal.StagedLog); ok && !cfg.Deterministic {
		slog = sl
	}
	// Lazy appends need no callback, so they are usable in deterministic mode
	// too (the simulator's log models the staged-but-unflushed crash window).
	lazy, _ := cfg.Log.(wal.LazyLog)
	s.shards = make([]*shard, n)
	for i := range s.shards {
		s.shards[i] = &shard{
			site:        s,
			id:          cfg.ID,
			ep:          cfg.Endpoint,
			log:         cfg.Log,
			slog:        slog,
			lazy:        lazy,
			res:         cfg.Resource,
			det:         cfg.Detector,
			kind:        cfg.Protocol,
			forgetAfter: cfg.ForgetAfter,
			clk:         clk,
			determin:    cfg.Deterministic,
			roVotes:     cfg.ReadOnlyVotes,
			trace:       cfg.Trace,
			metrics:     cfg.Metrics,
			txns:        map[string]*txState{},
			arrivals:    map[string]*arrival{},
			events:      make(chan event, 1024),
		}
	}
	if n == 1 && !cfg.Deterministic {
		s.shards[0].recv = cfg.Endpoint.Recv()
	}
	if s.metrics != nil {
		s.metrics.registerSiteGauges(s)
	}
	return s, nil
}

// ceilPow2 rounds n up to the next power of two (for the shard mask).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ID returns the site's identifier.
func (s *Site) ID() int { return s.id }

// ResourceVersion reports the resource's newest applied commit timestamp and
// its in-doubt watermark when the resource is multi-version; ok is false for
// plain resources. Every shard shares the one configured resource, so the
// first shard's view is the site's view.
func (s *Site) ResourceVersion() (commitTS, watermark uint64, ok bool) {
	vr, ok := s.shards[0].res.(VersionedResource)
	if !ok {
		return 0, 0, false
	}
	return vr.CommitTS(), vr.Watermark(), true
}

// shardFor routes a transaction ID to its owning shard (FNV-1a).
func (s *Site) shardFor(txid string) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(txid); i++ {
		h ^= uint32(txid[i])
		h *= 16777619
	}
	return s.shards[h&s.shardMask]
}

// protoTimeout returns the current protocol timeout.
func (s *shard) protoTimeout() time.Duration {
	return time.Duration(s.site.timeoutNs.Load())
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

// Start launches the shard event loops and subscribes to crash reports. In
// deterministic mode no goroutines are started: events are processed
// synchronously as the simulation driver injects them.
func (s *Site) Start() {
	s.live.Store(true)
	s.det.Watch(s.onCrashReport)
	if s.determin {
		return
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go sh.loop()
	}
	if len(s.shards) > 1 {
		s.wg.Add(1)
		go s.recvLoop()
	}
}

// onCrashReport reacts to a failure report from the detector. In
// deterministic mode the whole site handles it synchronously, visiting
// transactions in globally sorted ID order — the shard-count-invariant
// order the simulation's reproducibility (and its traces) depend on. In
// concurrent mode every shard is told and scans its own partition.
func (s *Site) onCrashReport(site int) {
	if s.determin {
		if s.stopped.Load() {
			s.dropped.Add(1)
			return
		}
		s.handleCrashAll(site)
		return
	}
	for _, sh := range s.shards {
		sh.enqueue(event{kind: evCrash, site: site})
	}
}

// handleCrashAll applies a crash report to every transaction of every shard
// in one globally sorted pass (deterministic mode only).
func (s *Site) handleCrashAll(site int) {
	var ids []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id := range sh.txns {
			ids = append(ids, id)
		}
		sh.mu.Unlock()
	}
	sort.Strings(ids)
	for _, id := range ids {
		sh := s.shardFor(id)
		sh.mu.Lock()
		if t, ok := sh.txns[id]; ok {
			sh.crashCheckTx(t, site)
		}
		sh.mu.Unlock()
	}
}

// onTimerFire is the site wheel's expiry callback: route the timeout to the
// transaction's shard, generation token attached.
func (s *Site) onTimerFire(txid string, gen uint64) {
	s.shardFor(txid).enqueue(event{kind: evTimeout, txid: txid, gen: gen})
}

// enqueue routes an event to the shard's event loop — or, in deterministic
// mode, processes it synchronously on the caller's goroutine (protocol state
// is mutex-protected, and the single-threaded simulation driver is the only
// injector, so handlers never run concurrently). Once the site has stopped,
// events are dropped and counted: losing one while the site is live would be
// a protocol bug. The stopped check comes first so that every enqueue that
// starts after Stop is counted: with both select arms below ready, the send
// could otherwise win and leave the event in a queue nobody drains again.
// An enqueue already past the check when Stop runs can still do that, and
// that event goes uncounted.
func (s *shard) enqueue(ev event) {
	if s.site.stopped.Load() {
		s.site.dropped.Add(1)
		return
	}
	if s.determin {
		s.handleEvent(ev)
		return
	}
	select {
	case s.events <- ev:
	case <-s.site.quit:
		s.site.dropped.Add(1)
	}
}

// Deliver synchronously processes one inbound message on the caller's
// goroutine. It is the injection point used by deterministic simulation
// (Config.Deterministic); sites wired to a live transport receive messages
// through their endpoint instead.
func (s *Site) Deliver(m transport.Message) { s.route(m) }

// route hands an inbound message to whoever owns its kind: a protocol
// message to its transaction's shard, anything else to Unhandled.
func (s *Site) route(m transport.Message) {
	if !s.turnAway(m) {
		s.shardFor(m.TxID).enqueue(event{kind: evMsg, msg: m})
	}
}

// turnAway reports whether m is of a kind the engine does not own, having
// handed it to Unhandled on the calling goroutine if so. Heartbeats and
// data-plane RPCs therefore never sit in a shard's event queue.
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
func (s *shard) prepare(txid string) voteResult {
	redo, err := s.res.Prepare(txid)
	return voteResult{txid: txid, redo: redo, err: err}
}

// Stop shuts the site down gracefully. In-flight transactions stay
// unresolved locally; events still queued when the loops exit are counted
// as dropped.
func (s *Site) Stop() {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	s.wheel.Stop()
	close(s.quit)
	s.wg.Wait()
	for _, sh := range s.shards {
		for {
			select {
			case <-sh.events:
				s.dropped.Add(1)
				continue
			default:
			}
			break
		}
	}
}

// recvLoop demultiplexes the endpoint onto the shards (multi-shard sites
// only; a single-shard site's loop reads the endpoint directly).
func (s *Site) recvLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case m, ok := <-s.ep.Recv():
			if !ok {
				// Endpoint closed under us: the site crashed.
				return
			}
			s.route(m)
		}
	}
}

// loop is a shard's event loop; all state changes of the shard's
// transactions happen here. Events are dequeued in batches: once the loop
// wakes it drains whatever else is already queued before going back to
// sleep, amortizing the channel synchronization.
func (sh *shard) loop() {
	defer sh.site.wg.Done()
	var batch [64]event
	for {
		var ev event
		select {
		case <-sh.site.quit:
			return
		case ev = <-sh.events:
		case m, ok := <-sh.recv:
			if !ok {
				// Endpoint closed under us: the site crashed.
				return
			}
			if sh.site.turnAway(m) {
				continue
			}
			ev = event{kind: evMsg, msg: m}
		}
		n := 0
		batch[n] = ev
		n++
		for n < len(batch) {
			select {
			case ev := <-sh.events:
				batch[n] = ev
				n++
				continue
			default:
			}
			break
		}
		for i := 0; i < n; i++ {
			sh.handleEvent(batch[i])
			batch[i] = event{} // drop payload references until the next use
		}
	}
}

func (s *shard) handleEvent(ev event) {
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
func (s *shard) handleMessage(m transport.Message) {
	if h := handlerFor(m.Kind); h != nil {
		h(s, m)
	}
}

// handlerFor returns the handler of a protocol message kind, or nil for a
// kind the engine does not own. It is the one list of what the engine owns.
func handlerFor(kind string) func(*shard, transport.Message) {
	switch kind {
	case KindVoteReq:
		return (*shard).onVoteReq
	case KindYes, KindNo, KindReadOnly:
		return (*shard).onVote
	case KindPrepare:
		return (*shard).onPrepareMsg
	case KindAck:
		return (*shard).onAck
	case KindCommit:
		return func(s *shard, m transport.Message) { s.onDecision(m, OutcomeCommitted) }
	case KindAbort:
		return func(s *shard, m transport.Message) { s.onDecision(m, OutcomeAborted) }
	case KindTermState:
		return (*shard).onTermState
	case KindTermAck:
		return (*shard).onTermAck
	case KindStatusReq:
		return (*shard).onStatusReq
	case KindStatusRes:
		return (*shard).onStatusRes
	case KindDecideReq:
		return (*shard).onDecideReq
	case KindDecideRes:
		return (*shard).onDecideRes
	case KindDecAck:
		return (*shard).onDecAck
	case KindPx1a:
		return (*shard).onPx1a
	case KindPx1b:
		return (*shard).onPx1b
	case KindPx2a:
		return (*shard).onPx2a
	case KindPx2b:
		return (*shard).onPx2b
	case KindPxNudge:
		return (*shard).onPxNudge
	case KindDXact:
		return (*shard).onDXact
	case KindDYes, KindDNo:
		return (*shard).onDVote
	case KindDPrepare:
		return (*shard).onDPrepare
	}
	return nil
}

// send transmits a protocol message, ignoring delivery failures (crash-stop
// losses are handled by timeouts and the termination protocol). While any
// staged WAL record is awaiting durability the message is deferred behind
// it: what we say to other sites must never outrun what we have forced to
// stable storage. Requires s.mu held.
func (s *shard) send(to int, kind, txid string, body []byte) {
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
func (s *shard) act(fn func()) {
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
func (s *shard) onDurable(g *actGroup) {
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

// newGroup takes an actGroup from the shard's freelist (or allocates one).
// Requires s.mu held.
func (s *shard) newGroup() *actGroup {
	if n := len(s.groups); n > 0 {
		g := s.groups[n-1]
		s.groups = s.groups[:n-1]
		return g
	}
	return &actGroup{}
}

// record emits a trace event if tracing is enabled.
func (s *shard) record(kind, txid, note string) {
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
func (s *shard) mustLog(rec wal.Record) {
	if t, ok := s.txns[rec.TxID]; ok {
		t.forced++
	}
	if s.slog != nil && s.site.live.Load() {
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
func (s *shard) mustLogLazy(rec wal.Record) {
	if s.lazy != nil {
		if err := s.lazy.AppendLazy(rec); err != nil && !errors.Is(err, wal.ErrClosed) {
			panic(fmt.Sprintf("engine: site %d cannot write WAL: %v", s.id, err))
		}
		return
	}
	// The log has no lazy capability: fall back to a forced append so the
	// record is never silently dropped (it still does not count against the
	// transaction's forced budget — the protocol did not require the force).
	if _, err := s.log.Append(rec); err != nil && !errors.Is(err, wal.ErrClosed) {
		panic(fmt.Sprintf("engine: site %d cannot write WAL: %v", s.id, err))
	}
}

// presumedAbort reports whether this transaction's abort path runs under the
// presumed-abort discipline: 2PC, central-site paradigm. The recovery rule —
// no committed record means abort — makes every abort-path force redundant:
// the coordinator keeps no trace of aborted transactions at all, and
// participants append their abort records lazily. Requires s.mu held.
func (s *shard) presumedAbort(t *txState) bool {
	return s.kind == TwoPhase && !t.peer
}

// armTimer (re)starts the transaction's protocol timer. The new arm's
// generation invalidates any timeout event from a previous arm that is
// still in flight. Requires s.mu held.
func (s *shard) armTimer(t *txState, d time.Duration) {
	t.timer.Stop()
	t.gen++
	t.timer = s.site.wheel.Schedule(d, t.id, t.gen)
}

// stopTimer cancels the transaction's timer and invalidates in-flight
// fires. Requires s.mu held.
func (s *shard) stopTimer(t *txState) {
	t.timer.Stop()
	t.timer = clock.WheelTimer{}
	t.gen++
}

// Outcome reports the site's local resolution of a transaction.
// ErrBlocked is returned while a 2PC participant sits in the uncertainty
// window with no way to decide.
func (s *Site) Outcome(txid string) (Outcome, error) {
	sh := s.shardFor(txid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t, ok := sh.txns[txid]
	if !ok {
		return OutcomePending, fmt.Errorf("engine: site %d does not know transaction %s", s.id, txid)
	}
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

// WaitOutcome blocks until the transaction resolves locally or the timeout
// elapses. A transaction this site has not heard of yet is waited for (its
// VOTE-REQ may still be in flight) through an arrival notification — no
// polling. A blocked 2PC transaction keeps WaitOutcome waiting (it may
// unblock when the coordinator recovers); use Outcome to poll for
// ErrBlocked. The result is read from the transaction record itself, so it
// stays correct even if the site auto-forgets the transaction the moment
// it settles.
func (s *Site) WaitOutcome(txid string, timeout time.Duration) (Outcome, error) {
	// An AfterFunc stopped on return, not clk.After: a timer channel would
	// stay live in the runtime for the full timeout — under load, tens of
	// thousands of them — long after the typical call returns in
	// milliseconds.
	timedOut := make(chan struct{})
	tm := s.clk.AfterFunc(timeout, func() { close(timedOut) })
	defer tm.Stop()
	sh := s.shardFor(txid)
	for {
		sh.mu.Lock()
		t, ok := sh.txns[txid]
		if ok {
			done := t.done
			sh.mu.Unlock()
			select {
			case <-done:
			case <-timedOut:
			case <-s.quit:
				return OutcomePending, ErrStopped
			}
			sh.mu.Lock()
			defer sh.mu.Unlock()
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
		a := sh.arrivals[txid]
		if a == nil {
			a = &arrival{ch: make(chan struct{})}
			sh.arrivals[txid] = a
		}
		a.refs++
		sh.mu.Unlock()
		select {
		case <-a.ch:
			sh.releaseArrival(txid, a)
		case <-timedOut:
			sh.releaseArrival(txid, a)
			return OutcomePending, fmt.Errorf("engine: site %d does not know transaction %s", s.id, txid)
		case <-s.quit:
			sh.releaseArrival(txid, a)
			return OutcomePending, ErrStopped
		}
	}
}

// releaseArrival drops one waiter's interest in a transaction's arrival,
// removing the notification entry with the last reference so unknown
// transaction IDs cannot accumulate.
func (s *shard) releaseArrival(txid string, a *arrival) {
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
	sh := s.shardFor(txid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if t, ok := sh.txns[txid]; ok {
		return t.phase.String()
	}
	return "?"
}

// resolve finishes a transaction locally: forces the outcome record, then
// applies the outcome to the resource and wakes waiters — both deferred
// behind the record's durability when the log group-commits, because they
// are externally visible (a woken client may immediately read the data).
// Requires s.mu held.
func (s *shard) resolve(t *txState, o Outcome) {
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
		if !t.detached {
			s.act(func() { _ = s.res.Abort(id) }) // aborts are idempotent
		}
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
func (s *shard) observeResolve(t *txState, o Outcome) {
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
func (s *shard) observeForced(t *txState, o Outcome) {
	if s.metrics == nil {
		return
	}
	s.metrics.ForcedPerCommit(t.coordinator, o == OutcomeCommitted).Observe(time.Duration(t.forced))
}

// observeSettle records decision→full-DEC-ACK latency once per coordinated
// transaction, when the last participant's acknowledgement arrives.
// Requires s.mu held.
func (s *shard) observeSettle(t *txState) {
	if s.metrics == nil || t.settled || t.decidedAt.IsZero() {
		return
	}
	t.settled = true
	s.metrics.settle.Observe(s.clk.Now().Sub(t.decidedAt))
}

// tx returns (creating if needed) the transaction record. Requires s.mu
// held.
func (s *shard) tx(txid string) *txState {
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

// Forget garbage-collects a resolved transaction: it forces an end record
// (so recovery skips the transaction entirely) and drops the in-memory
// state. Forgetting an unresolved transaction is an error — its protocol
// state is still load-bearing.
func (s *Site) Forget(txid string) error {
	sh := s.shardFor(txid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t, ok := sh.txns[txid]
	if !ok {
		return nil // already forgotten
	}
	if !t.resolved() {
		return fmt.Errorf("engine: site %d cannot forget unresolved transaction %s (phase %s)",
			s.id, txid, t.phase)
	}
	sh.forgetLocked(t)
	return nil
}

// Participants returns the commit cohort of a transaction this site tracks
// (coordinator included), or nil if the site does not know the transaction.
// Exposed for observability and for tests asserting cohort sizes — e.g.
// that a single-shard transaction engaged exactly one site.
func (s *Site) Participants(txid string) []int {
	sh := s.shardFor(txid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t, ok := sh.txns[txid]
	if !ok {
		return nil
	}
	return append([]int(nil), t.meta.Participants...)
}

// Transactions returns the IDs of the transactions this site currently
// tracks, for observability and tests.
func (s *Site) Transactions() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id := range sh.txns {
			out = append(out, id)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}
