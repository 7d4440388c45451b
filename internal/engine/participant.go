package engine

import (
	"sort"
	"time"

	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// onVoteReq handles the coordinator's transaction distribution: the
// participant decides its vote by preparing the local resource.
func (s *Site) onVoteReq(m transport.Message) {
	meta, err := decodeMeta(m.Body)
	if err != nil {
		return // malformed; the coordinator will time out and abort
	}
	s.mu.Lock()
	t := s.tx(m.TxID)
	if t.phase != phaseInit || t.coordinator || t.voting {
		s.mu.Unlock()
		return // duplicate delivery
	}
	t.meta = meta
	t.voting = true
	s.mu.Unlock()

	s.onPrepareResult(s.prepare(m.TxID))
}

// onPrepareResult finishes the participant's vote once the local prepare
// resolves.
func (s *Site) onPrepareResult(v voteResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[v.txid]
	if !ok || t.resolved() || t.phase != phaseInit {
		return // e.g. the coordinator timed out and aborted us meanwhile
	}
	if v.err != nil {
		// Unilateral abort: vote NO (deadlock resolution, validation
		// failure, ...), then abort immediately — the outcome is decided
		// for us. Safe under Paxos Commit too: this site is its own
		// instance's only ballot-0 proposer and never proposed 'y', so
		// commit is unreachable. Under presumed abort the NO-vote record
		// need not be forced: a crash that loses it leaves no trace, and
		// no trace already means abort.
		s.record("vote-no", t.id, v.err.Error())
		if s.presumedAbort(t) {
			s.mustLogLazy(wal.Record{Type: wal.RecVoteNo, TxID: t.id})
		} else {
			s.mustLog(wal.Record{Type: wal.RecVoteNo, TxID: t.id})
		}
		s.send(t.meta.Coordinator, KindNo, t.id, nil)
		s.resolve(t, OutcomeAborted)
		return
	}
	if s.kind == PaxosCommit {
		s.paxosVoteYes(t, v.redo)
		return
	}
	if !t.peer && len(v.redo) == 0 {
		// Read-only participant optimization: with no writes to make
		// atomic, this site's vote cannot constrain the outcome and its
		// recovery needs no record of the transaction. Vote READ-ONLY,
		// release the resource now, and drop out of the protocol entirely —
		// no forced record, no phase 2, no timer, no DEC-ACK. If a backup
		// coordinator or recovered site asks later, the no-state answer
		// ('n') excludes us, exactly as if we had already been forgotten.
		s.record("vote-ro", t.id, "")
		id, done := t.id, t.done
		t.phase = phaseCommitted
		s.send(t.meta.Coordinator, KindReadOnly, t.id, nil)
		s.act(func() { _ = s.res.Abort(id) }) // releases locks; no writes to keep
		s.act(func() { close(done) })
		s.stopTimer(t)
		delete(s.txns, t.id)
		return
	}
	t.redo = v.redo
	s.record("vote-yes", t.id, "")
	s.mustLog(wal.Record{Type: wal.RecVoteYes, TxID: t.id, Payload: encodeVotePayload(t.meta, t.redo)})
	t.phase = phaseWait
	s.send(t.meta.Coordinator, KindYes, t.id, nil)
	s.armTimer(t, s.protoTimeout())
}

// onPrepareMsg moves a participant into the buffer state p (3PC).
func (s *Site) onPrepareMsg(m transport.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[m.TxID]
	if !ok {
		return
	}
	if t.fenced {
		return // under backup control: only the termination protocol moves us
	}
	switch t.phase {
	case phaseWait:
		s.record("prepared", t.id, "")
		s.mustLog(wal.Record{Type: wal.RecPrepared, TxID: t.id, Payload: encodeVotePayload(t.meta, t.redo)})
		t.phase = phasePrepared
		s.send(m.From, KindAck, t.id, nil)
		s.armTimer(t, s.protoTimeout())
	case phasePrepared:
		s.send(m.From, KindAck, t.id, nil) // duplicate PREPARE: re-ack
	}
}

// onDecision applies a COMMIT/ABORT from the coordinator (or a backup
// coordinator, or a recovered site re-broadcasting).
func (s *Site) onDecision(m transport.Message, o Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[m.TxID]
	if !ok {
		if o == OutcomeCommitted {
			// A commit for a transaction we never saw can only follow a lost
			// VOTE-REQ (we never voted YES, so no correct cohort commits) —
			// or a decision re-sent after we already applied it durably and
			// forgot. Acknowledge so the coordinator can stop, but never
			// build state from it.
			s.send(m.From, KindDecAck, m.TxID, nil)
			return
		}
		// Abort for an unknown transaction: record it so repeated queries
		// resolve instantly, with no resource attached.
		t = s.tx(m.TxID)
		t.detached = true
	}
	if t.resolved() {
		// Duplicate decision: the sender is most likely a coordinator still
		// missing our DEC-ACK — re-acknowledge, and make sure our own grace
		// timer is (re-)armed so the record does not linger here forever
		// (recovered sites restore resolved transactions without one).
		// Presumed (2PC) aborts have no collector: nobody is waiting for an
		// acknowledgement.
		if !t.peer && !t.coordinator {
			if !(t.phase == phaseAborted && s.presumedAbort(t)) {
				s.send(m.From, KindDecAck, m.TxID, nil)
			}
			if t.deadline.IsZero() {
				s.armTimer(t, s.forgetAfter)
			}
		}
		return
	}
	s.resolve(t, o)
	if !ok && !t.coordinator {
		// The freshly created detached record has no cohort metadata, so
		// resolve's scheduleGC could not route the acknowledgement; the
		// sender of the decision is the one collecting it. Presumed (2PC)
		// aborts are not collected at all.
		if !(o == OutcomeAborted && s.presumedAbort(t)) {
			s.send(m.From, KindDecAck, m.TxID, nil)
		}
	}
}

// handleTimeout drives a transaction whose timer fired. It acts only once
// the transaction's deadline has passed, and clears it first: a fire that
// was already in flight when the transaction re-armed its timer finds a
// later deadline, and one that raced a stop finds none.
func (s *Site) handleTimeout(txid string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[txid]
	if !ok || t.deadline.IsZero() || s.clk.Now().Before(t.deadline) {
		return
	}
	t.deadline = time.Time{}
	if t.resolved() {
		s.gcTimeout(t)
		return
	}
	if t.coordinator {
		s.coordinatorTimeout(t)
		return
	}
	if t.peer {
		s.peerTimeout(t)
		return
	}
	s.participantTimeout(t)
}

// participantTimeout fires for a participant stuck in w or p (or re-fires
// while blocked/recovering). Requires s.mu held.
func (s *Site) participantTimeout(t *txState) {
	if t.phase != phaseWait && t.phase != phasePrepared {
		// A detached site in q only ever arms its timer when a termination
		// attempt touched it (TERM-STATE) or it was engaged as a Paxos
		// acceptor; the timer expiring means the decision broadcast was
		// lost — fall through and chase it.
		if t.phase != phaseInit || (!t.detached && t.px == nil) {
			return
		}
	}
	if t.recovering {
		s.retryRecovery(t)
		return
	}
	if s.kind == PaxosCommit {
		s.paxosParticipantTimeout(t)
		return
	}
	if t.meta.Coordinator != 0 && s.det.Alive(t.meta.Coordinator) {
		// The coordinator is operational, just slow or its message was
		// lost; nudge it for the decision and keep waiting.
		s.send(t.meta.Coordinator, KindDecideReq, t.id, nil)
		s.armTimer(t, s.protoTimeout())
		return
	}
	if s.kind == TwoPhase && t.queried {
		// Close the cooperative collection window: if every operational
		// site answered "uncertain", the transaction is blocked.
		s.evaluateCooperative(t, true)
		if t.resolved() {
			return
		}
	}
	// Coordinator crash detected: invoke the termination protocol (retrying
	// the status query if already blocked — the coordinator may recover).
	s.startTermination(t)
}

// inCohort reports whether site participates in t.
func inCohort(t *txState, site int) bool {
	return t.cohortIdx(site) >= 0
}

// handleCrash reacts to a failure report from the detector, scanning the
// transaction table. Transactions are visited in sorted ID order so that
// the reactions (and the messages they emit) are reproducible.
func (s *Site) handleCrash(site int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.txns))
	for id := range s.txns {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if t, ok := s.txns[id]; ok {
			s.crashCheckTx(t, site)
		}
	}
}

// crashCheckTx applies a crash report to one transaction. Requires s.mu
// held.
func (s *Site) crashCheckTx(t *txState, site int) {
	if t.resolved() {
		return
	}
	if t.coordinator {
		s.coordinatorCrashCheck(t, site)
		return
	}
	if t.recovering {
		return // recovery resolves via DECIDE-REQ retries
	}
	if s.kind == PaxosCommit {
		if t.px != nil && t.px.leading {
			return // the ballot timer supervises quorum loss
		}
		// Coordinator death is the event Paxos Commit exists for: a
		// survivor leads a higher ballot instead of running the cohort
		// termination protocol. Bystander acceptors (detached, still in q)
		// react too — they may be the elected takeover site.
		if t.meta.Coordinator != 0 && !s.det.Alive(t.meta.Coordinator) &&
			(t.phase == phaseWait || t.phase == phasePrepared || t.detached || t.px != nil) {
			s.paxosTakeover(t)
		}
		return
	}
	if t.peer {
		// Any cohort crash impairs the decentralized protocol.
		if inCohort(t, site) && (t.phase == phaseWait || t.phase == phasePrepared) {
			s.startTermination(t)
		}
		return
	}
	if site == t.meta.Coordinator && (t.phase == phaseWait || t.phase == phasePrepared) {
		s.startTermination(t)
		return
	}
	if t.termActive || t.phase == phaseWait || t.phase == phasePrepared {
		// The crash may have taken the backup coordinator down or
		// changed the cohort; re-evaluate termination.
		if t.meta.Coordinator != 0 && !s.det.Alive(t.meta.Coordinator) {
			s.startTermination(t)
		}
	}
}
