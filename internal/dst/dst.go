// Package dst is a deterministic simulation-testing harness for the commit
// engine: it runs the real internal/engine sites (central 2PC/3PC, the
// decentralized paradigm, termination and recovery protocols) over a virtual
// clock and a schedule-controlled in-memory transport, then systematically
// explores failure schedules — crash points at every WAL append and every
// message delivery, coordinator death at each phase, partitions, staggered
// recovery — and checks the paper's theorems on every explored schedule:
//
//   - consistency: no two sites ever decide a transaction differently;
//   - nonblocking: 3PC operational sites always terminate without waiting
//     for any crashed site to recover;
//   - blocking (negative control): 2PC provably blocks on at least one
//     enumerated schedule.
//
// Every run is driven from a single seed and replays byte-for-byte: the
// engine runs in deterministic mode (no internal goroutines), messages are
// captured into a transport.SimNetwork queue and delivered one at a time in
// a schedule-chosen order, and timeouts fire only when the scheduler
// advances the virtual clock.
package dst

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"nbcommit/internal/clock"
	"nbcommit/internal/engine"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// Config sizes a simulated cluster.
type Config struct {
	// Protocol selects 2PC or 3PC.
	Protocol engine.ProtocolKind
	// Sites is the cohort size; sites are numbered 1..Sites. Default 3.
	Sites int
	// Timeout is the engine protocol timeout on the virtual clock.
	// Default 50ms (virtual — no real time passes).
	Timeout time.Duration
	// SiteTimeouts overrides Timeout per site — hostile topologies use it
	// to skew one site's failure suspicion relative to its peers.
	SiteTimeouts map[int]time.Duration
	// Horizon bounds the virtual time a run may consume. Default 60s.
	Horizon time.Duration
	// MaxSteps bounds scheduler steps per run. Default 50000.
	MaxSteps int

	// mkResource, when set, builds each site's engine resource in place of
	// the synthetic instant resource — the snapshot harness plugs in real
	// multi-version kv stores here. It is called again on recovery with a
	// fresh resource expected: volatile store state dies with the site and
	// is rebuilt from the WAL redo images, exactly as in production.
	mkResource func(site int, clk clock.Clock) engine.Resource
}

func (c Config) withDefaults() Config {
	if c.Sites == 0 {
		c.Sites = 3
	}
	if c.Timeout == 0 {
		c.Timeout = 50 * time.Millisecond
	}
	if c.Horizon == 0 {
		c.Horizon = 60 * time.Second
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 50000
	}
	return c
}

// crashKind distinguishes the two families of enumerated crash points.
type crashKind int

const (
	// afterAppend crashes a site immediately after it forces a chosen WAL
	// record — between logging a transition and sending its messages, the
	// paper's "a site may only partially complete a transition before
	// failing".
	afterAppend crashKind = iota
	// afterDeliver crashes a site immediately after it finishes processing
	// its Nth inbound message — coordinator death at each phase falls out of
	// this family.
	afterDeliver
)

// CrashPoint identifies one instant at which a single site fails.
type CrashPoint struct {
	Site int
	kind crashKind
	Rec  wal.RecordType // afterAppend: crash after the Nth append of this type
	Nth  int
	Msg  int // afterDeliver: crash after processing the Nth inbound message
}

// String names the crash point for reports and reproducers.
func (p CrashPoint) String() string {
	if p.kind == afterAppend {
		return fmt.Sprintf("site %d crashes after WAL append %s#%d", p.Site, p.Rec, p.Nth)
	}
	return fmt.Sprintf("site %d crashes after processing message #%d", p.Site, p.Msg)
}

// resource is an instant, deterministic engine.Resource: Prepare succeeds
// with a synthetic redo image unless scripted to vote NO.
type resource struct {
	refuse    map[string]bool
	readonly  map[string]bool
	committed map[string]bool
}

func newResource() *resource {
	return &resource{refuse: map[string]bool{}, readonly: map[string]bool{}, committed: map[string]bool{}}
}

func (r *resource) Prepare(txid string) ([]byte, error) {
	if r.refuse[txid] {
		return nil, errors.New("scripted NO vote")
	}
	if r.readonly[txid] {
		return nil, nil // scripted empty write set: nothing at stake here
	}
	return []byte("redo:" + txid), nil
}

func (r *resource) Commit(txid string, redo []byte) error {
	r.committed[txid] = true
	return nil
}

func (r *resource) Abort(txid string) error { return nil }

func (r *resource) ApplyRedo(redo []byte) error {
	r.committed[strings.TrimPrefix(string(redo), "redo:")] = true
	return nil
}

// crashLog wraps a site's MemoryLog with a crash point: immediately after
// the trigger append the site falls silent (its subsequent appends are
// swallowed — the crash happened before them — and its sends stop escaping),
// and the scheduler completes the crash between steps. It also counts
// appends per record type, which is how the explorer enumerates crash
// points from a reference execution.
//
// Lazy appends are modelled with production FileLog semantics: AppendLazy
// stages the record in a volatile buffer that becomes durable only when the
// next forced append flushes it (riding that batch), and a crash loses the
// whole staged suffix — recoverSite discards this wrapper, buffer included,
// keeping only inner. Staged appends still count toward seen, so the
// explorer enumerates crash points inside the staged-but-unflushed windows
// that presumed-abort recovery must survive.
type crashLog struct {
	inner  *wal.MemoryLog
	c      *cluster
	site   int
	trig   *CrashPoint
	seen   map[wal.RecordType]int
	staged []wal.Record // lazy appends not yet carried by a forced batch
	dead   bool
}

func (l *crashLog) Append(rec wal.Record) (uint64, error) {
	if l.dead {
		// The site crashed mid-transition: this append and everything the
		// handler does afterwards is volatile work the crash destroyed. The
		// stale in-memory state is discarded when the site is stopped and
		// later rebuilt from the (truncated) log by recovery.
		return 0, nil
	}
	// Staged lazy records ride this forced batch: they become durable,
	// in stage order, together with the record that forced the flush.
	for _, lr := range l.staged {
		if _, err := l.inner.Append(lr); err != nil {
			return 0, err
		}
	}
	l.staged = l.staged[:0]
	lsn, err := l.inner.Append(rec)
	if err != nil {
		return lsn, err
	}
	l.seen[rec.Type]++
	if l.trig != nil && l.trig.kind == afterAppend &&
		l.trig.Rec == rec.Type && l.seen[rec.Type] == l.trig.Nth {
		l.dead = true
		l.c.tracef("crash point hit: %s", l.trig)
		l.c.trip(l.site)
	}
	return lsn, err
}

// AppendLazy implements wal.Log. A trigger on a lazily appended record
// crashes the site inside the lazy window: the record is staged, counted,
// and then lost with the buffer — recovery sees a log without it.
func (l *crashLog) AppendLazy(rec wal.Record) error {
	if l.dead {
		return nil
	}
	l.staged = append(l.staged, rec)
	l.seen[rec.Type]++
	if l.trig != nil && l.trig.kind == afterAppend &&
		l.trig.Rec == rec.Type && l.seen[rec.Type] == l.trig.Nth {
		l.dead = true
		l.c.tracef("crash point hit: %s (lazy window: record staged, not durable)", l.trig)
		l.c.trip(l.site)
	}
	return nil
}

// Records matches FileLog semantics: a scan flushes the staged suffix first
// (recovery only ever runs on a fresh wrapper, whose buffer is empty).
func (l *crashLog) Records() ([]wal.Record, error) {
	if !l.dead {
		for _, lr := range l.staged {
			if _, err := l.inner.Append(lr); err != nil {
				return nil, err
			}
		}
		l.staged = l.staged[:0]
	}
	return l.inner.Records()
}

func (l *crashLog) Close() error { return l.inner.Close() }

// cluster is one simulated world: n engine sites in deterministic mode over
// a SimNetwork and a shared virtual clock, plus the fault bookkeeping the
// scheduler needs.
type cluster struct {
	cfg    Config
	net    *transport.SimNetwork
	clk    *clock.Virtual
	sites  map[int]*engine.Site
	logs   map[int]*crashLog
	res    map[int]*resource
	kres   map[int]engine.Resource // cfg.mkResource-built resources, if any
	ids    []int
	txids  []string
	coords map[string]int // central transactions only: txid -> coordinator

	deliverTrip  *CrashPoint // armed afterDeliver crash point, if any
	down         map[int]bool
	everCrashed  map[int]bool
	pendingCrash []int
	delivered    map[int]int // messages processed per site
	deliveries   []transport.Message
	steps        int
	trace        []string
	failures     []string // harness-level failures (recovery errors, ...)

	// observe, when set, runs before every virtual-time advance and at run
	// exit — the instants at which the hostile harness samples outcomes and
	// blocked states without perturbing the schedule.
	observe func()
}

func newCluster(cfg Config, cp *CrashPoint) *cluster {
	c := &cluster{
		cfg:         cfg,
		net:         transport.NewSimNetwork(),
		clk:         clock.NewVirtual(),
		sites:       map[int]*engine.Site{},
		logs:        map[int]*crashLog{},
		res:         map[int]*resource{},
		kres:        map[int]engine.Resource{},
		down:        map[int]bool{},
		everCrashed: map[int]bool{},
		delivered:   map[int]int{},
		coords:      map[string]int{},
	}
	if cp != nil && cp.kind == afterDeliver {
		c.deliverTrip = cp
	}
	for id := 1; id <= cfg.Sites; id++ {
		c.ids = append(c.ids, id)
		var trig *CrashPoint
		if cp != nil && cp.kind == afterAppend && cp.Site == id {
			trig = cp
		}
		c.logs[id] = &crashLog{inner: wal.NewMemoryLog(), c: c, site: id, trig: trig, seen: map[wal.RecordType]int{}}
		c.res[id] = newResource()
		if cfg.mkResource != nil {
			c.kres[id] = cfg.mkResource(id, c.clk)
		}
		c.startSite(id)
	}
	return c
}

// timeoutFor returns the protocol timeout for one site, honoring the
// per-site skew table.
func (c *cluster) timeoutFor(id int) time.Duration {
	if d, ok := c.cfg.SiteTimeouts[id]; ok && d > 0 {
		return d
	}
	return c.cfg.Timeout
}

// resourceFor picks a site's engine resource: the mkResource-built one when
// the harness supplies real stores, the synthetic instant one otherwise.
func (c *cluster) resourceFor(id int) engine.Resource {
	if r, ok := c.kres[id]; ok {
		return r
	}
	return c.res[id]
}

// startSite assembles site id on the simulated network. GC runs in-sim with
// production's forget grace: drainSettlement moves virtual time through it,
// so the explorer reaches the settlement path, including the lazy
// end-record windows (TestTwoPCSettlementWindowReconverges).
func (c *cluster) startSite(id int) {
	s, err := engine.New(engine.Config{
		ID:            id,
		Endpoint:      c.net.Endpoint(id),
		Log:           c.logs[id],
		Resource:      c.resourceFor(id),
		Detector:      c.net,
		Protocol:      c.cfg.Protocol,
		Timeout:       c.timeoutFor(id),
		Clock:         c.clk,
		Deterministic: true,
	})
	if err != nil {
		panic(fmt.Sprintf("dst: cannot assemble site %d: %v", id, err)) // our own config; cannot fail
	}
	c.sites[id] = s
	s.Start()
}

func (c *cluster) tracef(format string, args ...any) {
	c.trace = append(c.trace, fmt.Sprintf(format, args...))
}

func (c *cluster) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// begin launches a transaction over the full cluster cohort.
func (c *cluster) begin(coord int, txid string, peer bool) error {
	return c.beginSubset(coord, txid, c.ids, peer)
}

// beginSubset launches a transaction whose cohort is a chosen subset of the
// cluster — the sharded case, where only the owner sites of the touched
// shards participate and the rest of the cluster are bystanders.
func (c *cluster) beginSubset(coord int, txid string, cohort []int, peer bool) error {
	c.txids = append(c.txids, txid)
	c.tracef("begin %s coordinator=%d cohort=%v peer=%v", txid, coord, cohort, peer)
	if !peer {
		c.coords[txid] = coord
	}
	_, err := c.sites[coord].Begin(txid, cohort, peer)
	return err
}

// trip marks a site dead as of this instant (mid-transition): its sends stop
// escaping immediately; the full crash — halting the site and broadcasting
// the failure report — completes between scheduler steps.
func (c *cluster) trip(site int) {
	c.net.Silence(site)
	c.pendingCrash = append(c.pendingCrash, site)
}

func (c *cluster) settlePendingCrashes() {
	for len(c.pendingCrash) > 0 {
		site := c.pendingCrash[0]
		c.pendingCrash = c.pendingCrash[1:]
		c.crash(site)
	}
}

// crash fails a site: its event processing halts, queued messages to it are
// lost, and the network reliably reports the failure to the survivors.
func (c *cluster) crash(site int) {
	if c.down[site] {
		return
	}
	c.down[site] = true
	c.everCrashed[site] = true
	c.tracef("crash site %d", site)
	c.sites[site].Stop()
	c.net.Crash(site)
}

// recoverSite restarts a crashed site from its surviving WAL with a fresh
// resource, modelling the paper's recovery protocol.
func (c *cluster) recoverSite(site int) {
	if !c.down[site] {
		return
	}
	c.tracef("recover site %d", site)
	c.down[site] = false
	c.res[site] = newResource()
	if c.cfg.mkResource != nil {
		c.kres[site] = c.cfg.mkResource(site, c.clk)
	}
	c.logs[site] = &crashLog{inner: c.logs[site].inner, c: c, site: site, seen: map[wal.RecordType]int{}}
	s, err := engine.Recover(engine.Config{
		ID:            site,
		Endpoint:      c.net.Endpoint(site),
		Log:           c.logs[site],
		Resource:      c.resourceFor(site),
		Detector:      c.net,
		Protocol:      c.cfg.Protocol,
		Timeout:       c.timeoutFor(site),
		Clock:         c.clk,
		Deterministic: true,
	})
	if err != nil {
		c.fail("recovery of site %d failed: %v", site, err)
		c.down[site] = true
		return
	}
	c.sites[site] = s
}

// run executes the schedule until the cluster settles (every alive site has
// resolved — or, for 2PC, provably blocked on — every transaction it knows),
// the plan and all timers are exhausted, or the step/virtual-time budget
// runs out. A nil plan means FIFO delivery with no faults.
//
// Virtual time advances to whichever comes first: a timed schedule event, an
// in-flight message's delivery instant (hostile latency models), or the next
// engine timer. Deliverable messages always drain before time moves.
func (c *cluster) run(p *plan) {
	start := c.clk.Now()
	defer func() {
		if c.observe != nil {
			c.observe()
		}
	}()
	for c.steps < c.cfg.MaxSteps && c.clk.Now().Sub(start) < c.cfg.Horizon {
		c.steps++
		c.settlePendingCrashes()
		if p != nil {
			p.fire(c)
			p.fireTimed(c, start)
		}
		if n := c.net.Pending(); n > 0 {
			i := 0
			if p != nil && p.rng != nil && n > 1 {
				i = p.rng.Intn(n)
			}
			m, ok := c.net.Take(i)
			if !ok || c.down[m.To] {
				continue // lost with a crash that beat the delivery
			}
			if p != nil && p.maybeDrop(m) {
				c.tracef("drop %s", m)
				continue
			}
			c.tracef("deliver %s", m)
			c.deliveries = append(c.deliveries, m)
			c.sites[m.To].Deliver(m)
			c.delivered[m.To]++
			if t := c.deliverTrip; t != nil && t.Site == m.To && t.Msg == c.delivered[m.To] && !c.down[m.To] {
				c.tracef("crash point hit: %s", t)
				c.trip(m.To)
			}
			continue
		}
		if len(c.pendingCrash) > 0 {
			continue
		}
		if p != nil && p.fireNext(c) {
			continue // quiescent: pull the next scheduled fault forward
		}
		// A message still in flight on a delayed link can start work at a
		// site that knows nothing yet: the cluster is not settled until it
		// lands.
		if _, inFlight := c.net.NextDue(); !inFlight && c.allSettled() && (p == nil || p.timedDone()) {
			return
		}
		// Nothing deliverable now: advance virtual time to the next event —
		// a timed schedule entry, a message due instant, or a timer — and
		// let the observer sample the pre-advance state first.
		now := c.clk.Now()
		var next time.Time
		if p != nil {
			if at, ok := p.nextTimedAt(start); ok {
				next = at
			}
		}
		if due, ok := c.net.NextDue(); ok && due.After(now) && (next.IsZero() || due.Before(next)) {
			next = due
		}
		if dl, ok := c.clk.NextDeadline(); ok && (next.IsZero() || dl.Before(next)) {
			next = dl
		}
		if next.IsZero() {
			return // no messages, no timers, no events, not settled: stuck
		}
		if c.observe != nil {
			c.observe()
		}
		if !next.After(now) {
			// A timed event is already due (or a timer is due now): let the
			// clock fire timers up to now and loop to apply events.
			if c.clk.Step() {
				continue
			}
			continue
		}
		c.clk.Advance(next.Sub(now))
	}
}

// drainSettlement advances virtual time through the engines' settlement
// grace periods after the cluster has settled: run returns as soon as every
// outcome is resolved, which leaves the GC timers — DEC-ACK re-offers and
// the forget grace period that stages each site's lazy end record — still
// pending. Draining them makes the staged-but-unflushed settlement windows
// reachable by the crash-point enumerator. Sites that poll forever (blocked
// transactions, crashed peers) re-arm a timer on every firing, so the drain
// is bounded by rounds rather than by timer exhaustion.
func (c *cluster) drainSettlement() {
	for round := 0; round < 6; round++ {
		dl, ok := c.clk.NextDeadline()
		if !ok {
			return
		}
		if now := c.clk.Now(); dl.After(now) {
			c.clk.Advance(dl.Sub(now))
		} else if !c.clk.Step() {
			return
		}
		c.run(nil)
	}
}

// allSettled reports whether every alive site has concluded every
// transaction it knows: resolved, or (2PC) provably blocked awaiting
// coordinator recovery. Unknown transactions are vacuously settled.
//
// Blocked only counts as a conclusion while some site is actually down:
// once the whole cluster is up again (post-recovery), the blocked site's
// next status poll will resolve the transaction — under presumed abort a
// recovered no-trace coordinator answers inquiries but broadcasts nothing
// on its own, so the run must keep advancing time until that poll fires.
func (c *cluster) allSettled() bool {
	anyDown := false
	for _, id := range c.ids {
		if c.down[id] {
			anyDown = true
			break
		}
	}
	for _, id := range c.ids {
		if c.down[id] {
			continue
		}
		for _, txid := range c.txids {
			o, err := c.sites[id].Outcome(txid)
			if errors.Is(err, engine.ErrBlocked) {
				if !anyDown {
					return false // everyone is up: the next poll unblocks it
				}
				continue
			}
			if err != nil {
				continue // unknown: vacuously settled
			}
			if o == engine.OutcomePending {
				return false
			}
		}
	}
	return true
}

// view is one site's verdict on one transaction.
type view struct {
	known   bool
	outcome engine.Outcome
	blocked bool
}

// snapshot captures every alive site's verdict on every transaction.
func (c *cluster) snapshot() map[string]map[int]view {
	out := map[string]map[int]view{}
	for _, txid := range c.txids {
		views := map[int]view{}
		for _, id := range c.ids {
			if c.down[id] {
				continue
			}
			o, err := c.sites[id].Outcome(txid)
			switch {
			case errors.Is(err, engine.ErrBlocked):
				views[id] = view{known: true, outcome: engine.OutcomePending, blocked: true}
			case err != nil:
				views[id] = view{known: false}
			default:
				views[id] = view{known: true, outcome: o}
			}
		}
		out[txid] = views
	}
	return out
}

// durableOutcome reads a site's decision for txid from its durable WAL —
// the terminal evidence once the live engine has settled and forgotten the
// transaction (auto-forget runs in-sim). Returns pending when the log holds
// no decision record, which under presumed abort also covers aborts that
// never forced one.
func (c *cluster) durableOutcome(site int, txid string) engine.Outcome {
	recs, _ := c.logs[site].inner.Records()
	out := engine.OutcomePending
	for _, rec := range recs {
		if rec.TxID != txid {
			continue
		}
		switch rec.Type {
		case wal.RecCommitted:
			out = engine.OutcomeCommitted
		case wal.RecAborted:
			out = engine.OutcomeAborted
		}
	}
	return out
}

// walDigest fingerprints every site's durable state, for replay-identity
// checks: two runs of the same seed must produce identical digests. Lazy
// records still staged at run end are deliberately excluded — they are not
// durable yet.
func (c *cluster) walDigest() string {
	h := fnv.New64a()
	for _, id := range c.ids {
		recs, err := c.logs[id].inner.Records()
		if err != nil {
			recs = nil
		}
		fmt.Fprintf(h, "site%d:", id)
		for _, r := range recs {
			fmt.Fprintf(h, "%s/%s/%d;", r.Type, r.TxID, len(r.Payload))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// sortedTxids returns the transaction IDs in launch order (already
// deterministic); exposed as a helper for checkers.
func (c *cluster) sortedTxids() []string { return c.txids }

// aliveKnownPending lists alive sites whose verdict on txid is known but
// still pending (blocked or not), sorted.
func aliveKnownPending(views map[int]view, ids []int) []int {
	var out []int
	for _, id := range ids {
		v, ok := views[id]
		if ok && v.known && v.outcome == engine.OutcomePending {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}
