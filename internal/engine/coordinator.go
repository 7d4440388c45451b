package engine

import (
	"fmt"
	"sort"

	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// Begin starts a distributed commit with this site as the coordinator.
// participants is the full cohort; the coordinator is added if absent. The
// call returns once the protocol is underway; use WaitOutcome to collect the
// decision.
//
// The coordinator votes too (the paper's parenthesized (yes1)/(no1)): its
// own Resource.Prepare must succeed for the transaction to commit. A cohort
// of this site alone commits in one phase (commitOnePhase).
func (s *Site) Begin(txid string, participants []int) error {
	cohort := normalizeCohort(s.id, participants)
	if len(cohort) > maxCohort {
		return fmt.Errorf("engine: cohort of %d exceeds the %d-site limit", len(cohort), maxCohort)
	}
	meta := TxMeta{Coordinator: s.id, Participants: cohort}

	sh := s.shardFor(txid)
	sh.mu.Lock()
	if s.stopped.Load() {
		sh.mu.Unlock()
		return ErrStopped
	}
	if _, ok := sh.txns[txid]; ok {
		sh.mu.Unlock()
		return fmt.Errorf("engine: site %d already has transaction %s", s.id, txid)
	}
	t := sh.tx(txid)
	t.coordinator = true
	t.meta = meta
	if s.metrics != nil {
		t.begunAt = s.clk.Now()
	}
	if t.onePhase() {
		sh.mu.Unlock()
		sh.commitOnePhase(t, sh.prepare(txid))
		return nil
	}
	// One encoding serves both the begin record and every VOTE-REQ body.
	body := encodeMeta(meta)
	if sh.presumedAbort(t) {
		// Presumed-abort 2PC: the begin record need not be forced. A
		// recovered coordinator with no trace answers in-doubt inquiries
		// with 'n' (no trace), which participants read as abort — exactly
		// the outcome a pre-commit coordinator crash produces anyway.
		sh.mustLogLazy(wal.Record{Type: wal.RecBegin, TxID: txid, Payload: body})
	} else {
		sh.mustLog(wal.Record{Type: wal.RecBegin, TxID: txid, Payload: body})
	}
	sh.armTimer(t, sh.protoTimeout())

	// First phase: distribute the transaction ("Start Xact" / VOTE-REQ).
	// Still under sh.mu so (when the begin record is forced) the sends
	// defer behind its durability: were a VOTE-REQ to outrun it and the
	// coordinator to crash, the recovered coordinator would not even know
	// the transaction it asked the cohort to vote on. Under presumed abort
	// the sends go out immediately — "I don't know this transaction" and
	// "abort" are the same answer.
	for _, p := range cohort {
		if p != s.id {
			sh.send(p, KindVoteReq, txid, body)
		}
	}
	sh.mu.Unlock()

	// The coordinator's own vote: prepared here, on the caller's goroutine,
	// and handled on the event loop in order with the cohort's votes.
	sh.enqueue(event{kind: evVote, vote: sh.prepare(txid)})
	return nil
}

// commitOnePhase finishes a transaction whose cohort is this site alone.
// The site is its own only participant, free to abort unilaterally until it
// decides, so the paper's objection to one-phase commit does not arise and
// the site's local recovery is the whole protocol: no begin, vote or
// prepared record, one forced RecCommitted carrying the redo image, and
// nothing at all for an abort (no trace already means abort to recovery).
func (s *shard) commitOnePhase(t *txState, v voteResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v.err != nil {
		s.record("vote-no", t.id, v.err.Error())
		s.resolve(t, OutcomeAborted)
		return
	}
	t.redo = v.redo
	s.resolve(t, OutcomeCommitted)
}

// normalizeCohort sorts, deduplicates, and ensures self is present.
func normalizeCohort(self int, participants []int) []int {
	seen := map[int]bool{self: true}
	out := []int{self}
	for _, p := range participants {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Ints(out)
	return out
}

// onVote handles YES/NO/READ-ONLY from a participant (coordinator role).
func (s *shard) onVote(m transport.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[m.TxID]
	if !ok || !t.coordinator || t.resolved() {
		return
	}
	if m.Kind == KindNo {
		s.decideAbort(t)
		return
	}
	idx := t.cohortIdx(m.From)
	if m.Kind == KindReadOnly {
		// The participant had no writes: it already released its locks and
		// forgot the transaction. It counts as a YES for the decision but
		// drops out of every later round — prepares, the decision fan-out,
		// and DEC-ACK settlement all skip it.
		t.readonly.add(idx)
		s.record("ro-vote", t.id, fmt.Sprintf("site %d read-only", m.From))
	}
	t.votes.add(idx)
	s.maybeAllVotes(t)
}

// onOwnVote handles the coordinator's local prepare result.
func (s *shard) onOwnVote(v voteResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[v.txid]
	if !ok || !t.coordinator || t.resolved() {
		return
	}
	if v.err != nil {
		// Unilateral abort is safe under every family — for Paxos Commit
		// because the coordinator is its own instance's only ballot-0
		// proposer and never proposed 'y', so commit is unreachable.
		s.decideAbort(t)
		return
	}
	if s.kind == PaxosCommit {
		s.paxosOwnVote(t, v.redo)
		return
	}
	t.redo = v.redo
	t.ownYes = true
	s.maybeAllVotes(t)
}

// maybeAllVotes advances when the coordinator holds a YES from every other
// participant plus its own. Requires s.mu held.
func (s *shard) maybeAllVotes(t *txState) {
	if t.phase != phaseInit || !t.ownYes || s.kind == PaxosCommit {
		return // Paxos decides from 2b tallies, never from YES counting
	}
	for i, p := range t.meta.Participants {
		if p != s.id && !t.votes.has(i) {
			return
		}
	}
	if s.metrics != nil && !t.begunAt.IsZero() {
		t.votesAt = s.clk.Now()
		s.metrics.votes.Observe(t.votesAt.Sub(t.begunAt))
	}
	if s.kind == TwoPhase {
		s.decideCommit(t)
		return
	}
	// 3PC: enter the buffer state and run the prepare round. Read-only
	// voters are already gone and skip the buffer state entirely.
	s.mustLog(wal.Record{Type: wal.RecPrepared, TxID: t.id, Payload: encodeVotePayload(t.meta, t.redo)})
	t.phase = phasePrepared
	for i, p := range t.meta.Participants {
		if p != s.id && !t.readonly.has(i) {
			s.send(p, KindPrepare, t.id, nil)
		}
	}
	s.armTimer(t, s.protoTimeout())
	s.maybeAllAcks(t) // a 2-site cohort with a crashed slave resolves now
}

// onAck handles a participant's PREPARE acknowledgement. Requires 3PC.
func (s *shard) onAck(m transport.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[m.TxID]
	if !ok || !t.coordinator || t.phase != phasePrepared {
		return
	}
	t.acks.add(t.cohortIdx(m.From))
	s.maybeAllAcks(t)
}

// maybeAllAcks commits once every operational participant has acknowledged
// the prepare. Crashed participants are waived: they voted YES, so their
// recovery protocol will learn the commit from the cohort. Requires s.mu
// held.
func (s *shard) maybeAllAcks(t *txState) {
	if t.phase != phasePrepared || !t.coordinator {
		return
	}
	for i, p := range t.meta.Participants {
		if p != s.id && !t.acks.has(i) && !t.readonly.has(i) && s.det.Alive(p) {
			return
		}
	}
	s.decideCommit(t)
}

// decideCommit records and broadcasts the commit decision. Read-only voters
// dropped out of the cohort after phase 1 and receive nothing. Requires s.mu
// held.
//
// Whoever DECIDES also claims the settlement collection point (a no-op for
// the original coordinator): a Paxos takeover leader deciding in place of a
// dead coordinator must collect the cohort's DEC-ACKs itself — if the
// survivors merely acknowledged the corpse and forgot after the grace
// period, the coordinator's eventual recovery would find a cohort with no
// memory of the outcome.
func (s *shard) decideCommit(t *txState) {
	t.coordinator = true
	s.resolve(t, OutcomeCommitted)
	for i, p := range t.meta.Participants {
		if p != s.id && !t.readonly.has(i) {
			s.send(p, KindCommit, t.id, nil)
		}
	}
}

// decideAbort records and broadcasts the abort decision, claiming the
// settlement collection point like decideCommit. Requires s.mu held.
func (s *shard) decideAbort(t *txState) {
	t.coordinator = true
	s.resolve(t, OutcomeAborted)
	for i, p := range t.meta.Participants {
		if p != s.id && !t.readonly.has(i) {
			s.send(p, KindAbort, t.id, nil)
		}
	}
}

// coordinatorTimeout fires when vote or ack collection stalls. Requires
// s.mu held.
func (s *shard) coordinatorTimeout(t *txState) {
	if s.kind == PaxosCommit {
		// The Paxos coordinator must NOT unilaterally abort on a stall:
		// every instance may already be chosen 'y' at the acceptors with
		// only the 2b messages lost, and a takeover leader would then
		// decide commit. Escalate the ballot instead — phase 1 learns the
		// durable truth and the decision comes out of consensus (free
		// instances end in 'n', so a genuinely missing vote still aborts).
		s.paxosEscalate(t)
		return
	}
	switch t.phase {
	case phaseInit:
		// Missing votes: abort. A crashed or partitioned participant is
		// indistinguishable from a NO for commit purposes.
		s.decideAbort(t)
	case phasePrepared:
		// Resend PREPARE to laggards and re-check with crashed sites
		// waived.
		s.maybeAllAcks(t)
		if t.resolved() {
			return
		}
		for i, p := range t.meta.Participants {
			if p != s.id && !t.acks.has(i) && !t.readonly.has(i) && s.det.Alive(p) {
				s.send(p, KindPrepare, t.id, nil)
			}
		}
		s.armTimer(t, s.protoTimeout())
	}
}

// coordinatorCrashCheck re-evaluates a coordinator transaction after a
// participant crash. Requires s.mu held.
func (s *shard) coordinatorCrashCheck(t *txState, crashed int) {
	if t.resolved() {
		return
	}
	idx := t.cohortIdx(crashed)
	if idx < 0 {
		return
	}
	if s.kind == PaxosCommit {
		s.paxosLeaderCrashCheck(t, idx)
		return
	}
	switch t.phase {
	case phaseInit:
		if !t.votes.has(idx) {
			// The participant crashed before voting: it will abort on
			// recovery (failure before the commit point), so the
			// transaction must abort.
			s.decideAbort(t)
		}
	case phasePrepared:
		s.maybeAllAcks(t)
	}
}
