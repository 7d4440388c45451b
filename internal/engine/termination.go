package engine

import (
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// Status letters carried in STATUS-RES and DECIDE-RES bodies: the canonical
// state letters plus "r" for a recovering site that refuses the backup role
// and "n" for a site with no trace of the transaction at all. "n" is the
// load-bearing letter of presumed abort: from the 2PC coordinator it means
// the transaction aborted (a commit would have left a forced record); from
// anyone else it only means "no information — exclude me" (the answerer may
// be an ex-read-only member of a committed transaction, or may simply have
// forgotten a settled one).
const (
	statusRecovering = byte('r')
	statusNoTrace    = byte('n')
)

// startTermination runs when a participant detects that the coordinator
// crashed while the transaction is unresolved. For 3PC it is the paper's
// central-site termination protocol: elect a backup coordinator, have it
// decide from its own local state (the decision rule of slide 39), and
// execute the 2-phase backup protocol. For 2PC it is cooperative
// termination, which blocks when every operational site is uncertain.
// Requires s.mu held.
func (s *Site) startTermination(t *txState) {
	if t.resolved() || t.recovering {
		return
	}
	if s.kind == PaxosCommit {
		// Paxos Commit never runs the cohort termination protocol: the
		// decision is replicated across the acceptors, so a takeover ballot
		// replaces the TERM-STATE/TERM-ACK synchronization entirely.
		s.paxosTakeover(t)
		return
	}
	if s.kind == TwoPhase {
		s.startCooperative(t)
		return
	}

	backup, ok := s.electBackup(t)
	if !ok {
		// No operational candidate but ourselves ever exists (we are one);
		// defensive re-arm.
		s.armTimer(t, s.protoTimeout())
		return
	}
	if backup == s.id {
		s.runBackup(t)
		return
	}
	// Nudge the backup, then wait for it to drive phases 1 and 2. A backup
	// with no trace of the transaction answers 'n' and is excluded.
	s.send(backup, KindStatusReq, t.id, encodeMeta(t.meta))
	s.armTimer(t, s.protoTimeout())
}

// electBackup picks the backup coordinator: the lowest-numbered operational,
// non-excluded cohort member other than the failed coordinator. The paper
// allows "any distributed election mechanism"; this one needs no messages,
// since under the paper's reliable failure reporting every operational site
// computes the same site. The cohort is sorted (normalizeCohort), so the
// first such member is the lowest. Requires s.mu held.
func (s *Site) electBackup(t *txState) (int, bool) {
	for i, p := range t.meta.Participants {
		if p != t.meta.Coordinator && !t.excluded.has(i) && s.det.Alive(p) {
			return p, true
		}
	}
	return 0, false
}

// runBackup makes this site the backup coordinator. Requires s.mu held.
func (s *Site) runBackup(t *txState) {
	s.record("backup", t.id, "state "+t.phase.String())
	t.termActive = true
	if t.resolved() {
		s.broadcastOutcome(t)
		return
	}
	// Phase 1 of the backup protocol: ask every operational site to make a
	// transition to the backup's local state and wait for acknowledgements.
	// (The paper permits omitting phase 1 when the backup is already in a
	// final state — handled above by broadcasting directly.)
	//
	// The decision in phase 2 must come from the state broadcast HERE, not
	// from whatever t.phase is by then: a stale in-flight PREPARE from the
	// dead coordinator (or a late vote completing a decentralized round) can
	// move this site w -> p mid-round, and deciding commit from the drifted
	// state while the cohort was synchronized to w lets a subsequent backup
	// decide the other way. Snapshot it.
	t.termPhase = t.phase
	t.fenced = true
	t.termAcks = 0
	body := append([]byte{t.phase.letter()}, encodeMeta(t.meta)...)
	for _, p := range t.meta.Participants {
		if p != s.id && p != t.meta.Coordinator && s.det.Alive(p) {
			s.send(p, KindTermState, t.id, body)
		}
	}
	s.armTimer(t, s.protoTimeout())
	s.maybeTermPhase2(t)
}

// letter renders the phase as the canonical state byte.
func (p phase) letter() byte {
	switch p {
	case phaseInit:
		return 'q'
	case phaseWait:
		return 'w'
	case phasePrepared:
		return 'p'
	case phaseCommitted:
		return 'c'
	default:
		return 'a'
	}
}

// onTermState handles phase 1 of the backup protocol at a participant:
// adopt the backup coordinator's local state and acknowledge.
func (s *Site) onTermState(m transport.Message) {
	if len(m.Body) < 1 {
		return
	}
	target := m.Body[0]
	meta, err := decodeMeta(m.Body[1:])
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tx(m.TxID)
	if len(t.meta.Participants) == 0 {
		t.meta = meta
		t.detached = true // we never executed this transaction locally
	}
	if t.recovering {
		s.send(m.From, KindStatusRes, t.id, []byte{statusRecovering})
		return
	}
	if t.resolved() {
		// Inform the backup of the decided outcome instead of acking.
		s.sendOutcome(m.From, t)
		return
	}
	switch {
	case target == 'p' && t.phase == phaseWait:
		s.mustLog(wal.Record{Type: wal.RecPrepared, TxID: t.id, Payload: encodeVotePayload(t.meta, t.redo)})
		t.phase = phasePrepared
	case target == 'w' && t.phase == phasePrepared:
		// Retreat from the buffer state: p and w differ only in knowledge,
		// no irreversible action has occurred, so the synchronizing move is
		// safe. The WAL keeps the prepared record; recovery treats both as
		// in-doubt.
		t.phase = phaseWait
	}
	t.fenced = true
	s.send(m.From, KindTermAck, t.id, nil)
	s.armTimer(t, s.protoTimeout())
}

// onTermAck collects phase-1 acknowledgements at the backup coordinator.
func (s *Site) onTermAck(m transport.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[m.TxID]
	if !ok || !t.termActive {
		return
	}
	t.termAcks.add(t.cohortIdx(m.From))
	s.maybeTermPhase2(t)
}

// maybeTermPhase2 fires phase 2 of the backup protocol once every
// operational cohort site has acknowledged phase 1 (crashed sites are
// waived: they resolve via the recovery protocol). Requires s.mu held.
func (s *Site) maybeTermPhase2(t *txState) {
	if t.resolved() || !t.termActive {
		return
	}
	for i, p := range t.meta.Participants {
		if p == s.id || p == t.meta.Coordinator || t.excluded.has(i) {
			continue
		}
		if !t.termAcks.has(i) && s.det.Alive(p) {
			return
		}
	}
	// Decision rule for backup coordinators (slide 39): commit iff the
	// concurrency set of the backup's state contains a commit state — for
	// the canonical 3PC, commit from {p, c}, abort from {q, w, a}. Decide
	// from the phase-1 snapshot, which is what the cohort was synchronized
	// to (see runBackup).
	//
	// The deciding backup also claims the settlement collection point (see
	// decideCommit): it keeps the outcome and re-offers it until every
	// cohort member — the dead coordinator included, after it recovers —
	// has acknowledged, so late recovery never meets a cohort that forgot.
	t.coordinator = true
	if t.termPhase == phasePrepared {
		s.resolve(t, OutcomeCommitted)
	} else {
		s.resolve(t, OutcomeAborted)
	}
	s.broadcastOutcome(t)
}

// broadcastOutcome sends the resolved decision to every other cohort member.
// Requires s.mu held and t resolved.
func (s *Site) broadcastOutcome(t *txState) {
	for _, p := range t.meta.Participants {
		if p != s.id {
			s.sendOutcome(p, t)
		}
	}
}

// sendOutcome transmits t's decision to one site. Requires t resolved.
func (s *Site) sendOutcome(to int, t *txState) {
	kind := KindAbort
	if t.phase == phaseCommitted {
		kind = KindCommit
	}
	s.send(to, kind, t.id, nil)
}

// --- 2PC cooperative termination ---

// startCooperative begins (or retries) the 2PC termination attempt: query
// every operational cohort member's state and decide if any response breaks
// the uncertainty. Requires s.mu held.
func (s *Site) startCooperative(t *txState) {
	t.queried = true
	t.statuses = map[int]byte{}
	for _, p := range t.meta.Participants {
		if p != s.id && s.det.Alive(p) {
			s.send(p, KindStatusReq, t.id, encodeMeta(t.meta))
		}
	}
	s.armTimer(t, s.protoTimeout())
}

// onStatusReq answers a state query (2PC cooperative termination) or a
// backup nudge (3PC). A site with no trace of the transaction answers 'n',
// whatever the protocol; a site that knows it answers from its state.
func (s *Site) onStatusReq(m transport.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[m.TxID]
	if !ok {
		// No trace: we may be an ex-read-only member of a COMMITTED
		// transaction that dropped out after phase 1, or may have forgotten
		// a settled one, so no-trace proves nothing about the outcome.
		// Answer 'n' and build no state: it is never decisive at the
		// querier (it excludes us or blocks), so no decision can be
		// assembled from our ignorance.
		s.send(m.From, KindStatusRes, m.TxID, []byte{statusNoTrace})
		return
	}
	if len(t.meta.Participants) == 0 && len(m.Body) > 0 {
		if meta, err := decodeMeta(m.Body); err == nil {
			t.meta = meta
			t.detached = true
		}
	}
	switch {
	case t.recovering:
		s.send(m.From, KindStatusRes, t.id, []byte{statusRecovering})
	case t.resolved():
		s.sendOutcome(m.From, t)
	case t.phase == phaseInit:
		// A status query means a termination attempt is under way, and the
		// querier will read q as "this site never voted, so no site can have
		// committed" — and abort. That reading is only sound if it stays
		// true: seal the state by unilaterally aborting from q now, so a
		// late-arriving transaction distribution cannot revive the vote and
		// assemble a commit behind the termination decision.
		s.record("seal-abort", t.id, "status query while in q")
		if t.coordinator {
			s.decideAbort(t) // broadcasts, reaching the querier too
			return
		}
		s.resolve(t, OutcomeAborted)
		s.sendOutcome(m.From, t)
	default:
		s.send(m.From, KindStatusRes, t.id, []byte{t.phase.letter()})
		// A 3PC backup learns of its role through this nudge. For the
		// central paradigm that requires the coordinator to be down; in the
		// decentralized paradigm (Coordinator == 0) the nudge itself is the
		// signal.
		if s.kind == ThreePhase && len(t.meta.Participants) > 0 &&
			(t.meta.Coordinator == 0 || !s.det.Alive(t.meta.Coordinator)) {
			if backup, ok := s.electBackup(t); ok && backup == s.id {
				s.runBackup(t)
			}
		}
	}
}

// onStatusRes folds a cohort member's state into the 2PC cooperative
// decision (or, for 3PC, handles a "recovering" refusal of the backup
// role).
func (s *Site) onStatusRes(m transport.Message) {
	if len(m.Body) < 1 {
		return
	}
	st := m.Body[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[m.TxID]
	if !ok || t.resolved() {
		return
	}
	if st == statusNoTrace {
		// From the 2PC coordinator, no trace IS the verdict: it never
		// forced a commit record, so no COMMIT was ever sent — presume
		// abort. From anyone else it carries no information; exclude the
		// site from backup candidacy and fold it into the cooperative
		// tally as an answered-but-uninformative status.
		if s.kind == TwoPhase && !t.peer && t.meta.Coordinator != 0 && m.From == t.meta.Coordinator {
			s.record("presume-abort", t.id, "coordinator has no trace")
			t.recovering = false
			s.resolve(t, OutcomeAborted)
			s.broadcastOutcome(t)
			return
		}
		t.excluded.add(t.cohortIdx(m.From))
		if s.kind == ThreePhase {
			s.startTermination(t) // recompute the backup without it
			return
		}
		if s.kind == TwoPhase && t.queried {
			t.statuses[m.From] = st
			s.evaluateCooperative(t, false)
		}
		return
	}
	if st == statusRecovering {
		t.excluded.add(t.cohortIdx(m.From))
		if s.kind == ThreePhase {
			s.startTermination(t) // recompute the backup without it
		}
		return
	}
	if s.kind != TwoPhase || !t.queried {
		return
	}
	t.statuses[m.From] = st
	s.evaluateCooperative(t, false)
}

// evaluateCooperative applies the cooperative termination rule. final marks
// the end of a collection window (timer expiry): if every operational site
// has answered and all are uncertain, the transaction is blocked. Requires
// s.mu held.
func (s *Site) evaluateCooperative(t *txState, final bool) {
	if t.resolved() {
		return
	}
	anyUnknown := false
	for _, p := range t.meta.Participants {
		if p == s.id || !s.det.Alive(p) {
			continue
		}
		st, ok := t.statuses[p]
		if !ok {
			anyUnknown = true
			continue
		}
		switch st {
		case 'c':
			// Should arrive as a COMMIT message, but accept either way.
			s.resolve(t, OutcomeCommitted)
			s.broadcastOutcome(t)
			return
		case 'a':
			s.resolve(t, OutcomeAborted)
			s.broadcastOutcome(t)
			return
		case 'q':
			// A site that has not voted: the coordinator cannot have
			// committed, so abort is safe.
			s.resolve(t, OutcomeAborted)
			s.broadcastOutcome(t)
			return
		case statusRecovering:
			anyUnknown = true
		case statusNoTrace:
			// Answered, but uninformative: an ex-read-only member or a site
			// that already forgot. Not counted as unknown — a collection
			// window where everyone answered w/'n' still closes blocked.
		}
	}
	if final && !anyUnknown {
		// Every operational site is in w: this is the 2PC blocking
		// situation. Stay armed — only the coordinator's recovery can
		// resolve the transaction.
		if !t.blocked {
			s.record("blocked", t.id, "all operational sites uncertain")
		}
		t.blocked = true
		s.armTimer(t, s.protoTimeout())
	}
}
