package engine

import (
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// Message kinds of the decentralized paradigm: every site runs the same
// protocol and exchanges full rounds with every other site.
const (
	KindDXact    = "D-XACT" // transaction distribution (any site initiates)
	KindDYes     = "D-YES"  // vote broadcast
	KindDNo      = "D-NO"
	KindDPrepare = "D-PREPARE" // prepare round broadcast (3PC)
)

// distribute starts a new transaction under the decentralized protocol: this
// site sends it to the whole cohort and casts its own vote, and every site
// votes and exchanges rounds symmetrically — there is no coordinator, so
// TxMeta.Coordinator is zero and any site's failure triggers the
// termination protocol at the survivors. Requires s.mu held; releases it.
func (s *Site) distribute(t *txState, cohort []int) {
	t.meta = TxMeta{Coordinator: 0, Participants: cohort}
	t.peer = true
	body := encodeMeta(t.meta)
	for _, p := range cohort {
		if p != s.id {
			s.send(p, KindDXact, t.id, body)
		}
	}
	s.mu.Unlock()

	// Deliver our own copy directly: onDXact finds the record Begin created
	// still in phase q and casts this site's vote on it.
	s.onDXact(transport.Message{From: s.id, To: s.id, Kind: KindDXact, TxID: t.id, Body: body})
}

// onDXact receives the transaction at a peer and casts the local vote. At
// the initiating site the record already exists in phase q: Begin creates
// it before the D-XACT sends.
func (s *Site) onDXact(m transport.Message) {
	meta, err := decodeMeta(m.Body)
	if err != nil {
		return
	}
	s.mu.Lock()
	t := s.tx(m.TxID)
	if t.phase != phaseInit || t.voting || t.resolved() || t.fenced {
		s.mu.Unlock()
		return
	}
	t.meta = meta
	t.peer = true
	t.voting = true
	if t.dvotes == nil {
		t.dvotes = map[int]byte{}
	}
	s.mu.Unlock()

	s.onPeerVoteResult(s.prepare(m.TxID))
}

// onPeerVoteResult completes the peer's local vote and broadcasts it.
func (s *Site) onPeerVoteResult(v voteResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[v.txid]
	if !ok || t.resolved() || t.phase != phaseInit {
		return
	}
	if v.err != nil {
		// Unilateral abort: broadcast the NO and abort immediately — in the
		// decentralized protocol the site moves q -> a without waiting.
		s.mustLog(wal.Record{Type: wal.RecVoteNo, TxID: t.id})
		for _, p := range t.meta.Participants {
			if p != s.id {
				s.send(p, KindDNo, t.id, nil)
			}
		}
		s.resolve(t, OutcomeAborted)
		return
	}
	t.redo = v.redo
	s.mustLog(wal.Record{Type: wal.RecVoteYes, TxID: t.id, Payload: encodeVotePayload(t.meta, t.redo)})
	t.phase = phaseWait
	t.dvotes[s.id] = 'y'
	body := encodeMeta(t.meta)
	for _, p := range t.meta.Participants {
		if p != s.id {
			s.send(p, KindDYes, t.id, body)
		}
	}
	s.armTimer(t, s.protoTimeout())
	s.maybePeerVotesDone(t)
}

// onDVote records a peer's vote. A site that has already resolved the
// transaction (e.g. it voted NO and aborted, and its NO was lost) answers a
// retransmitted vote with the outcome instead.
//
// A D-YES carries the transaction's meta, as D-XACT does: a peer's vote can
// beat the distribution over another link (or on the same one, reordered),
// and a site that dropped it would wait a full timeout for the resend. An
// unknown transaction therefore enters through onDXact first — the site
// votes — and the early vote is then counted like any other.
func (s *Site) onDVote(m transport.Message) {
	s.mu.Lock()
	if _, ok := s.txns[m.TxID]; !ok && m.Kind == KindDYes {
		s.mu.Unlock()
		s.onDXact(m)
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	t, ok := s.txns[m.TxID]
	if !ok {
		return
	}
	if t.resolved() {
		s.sendOutcome(m.From, t)
		return
	}
	if t.recovering {
		// In doubt after a crash: we cannot rejoin the vote round, but the
		// sender must learn that — it will exclude us and run the termination
		// protocol among the operational sites instead of retransmitting
		// forever.
		s.send(m.From, KindStatusRes, t.id, []byte{statusRecovering})
		return
	}
	if t.fenced {
		return // under backup control: only the termination protocol moves us
	}
	if t.dvotes == nil {
		t.dvotes = map[int]byte{}
	}
	if m.Kind == KindDYes {
		t.dvotes[m.From] = 'y'
	} else {
		t.dvotes[m.From] = 'n'
	}
	s.maybePeerVotesDone(t)
}

// maybePeerVotesDone advances once a full vote round is in. A missing vote
// from a crashed peer is NOT waived — its vote may have reached other sites
// that already advanced, so only the termination protocol may resolve the
// gap. Requires s.mu held.
func (s *Site) maybePeerVotesDone(t *txState) {
	if t.phase != phaseWait || !t.peer {
		return
	}
	anyNo := false
	for _, p := range t.meta.Participants {
		v, ok := t.dvotes[p]
		if !ok {
			return
		}
		if v == 'n' {
			anyNo = true
		}
	}
	if anyNo {
		s.resolve(t, OutcomeAborted)
		return
	}
	if s.kind == TwoPhase {
		s.resolve(t, OutcomeCommitted)
		return
	}
	// 3PC: enter the buffer state and run the prepare interchange.
	s.mustLog(wal.Record{Type: wal.RecPrepared, TxID: t.id, Payload: encodeVotePayload(t.meta, t.redo)})
	t.phase = phasePrepared
	t.dprepares.add(t.cohortIdx(s.id))
	for _, p := range t.meta.Participants {
		if p != s.id {
			s.send(p, KindDPrepare, t.id, nil)
		}
	}
	s.armTimer(t, s.protoTimeout())
	s.maybePeerPreparesDone(t)
}

// onDPrepare records a peer's prepare broadcast, answering with the outcome
// when already resolved.
func (s *Site) onDPrepare(m transport.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[m.TxID]
	if !ok {
		return
	}
	if t.resolved() {
		s.sendOutcome(m.From, t)
		return
	}
	if t.recovering {
		s.send(m.From, KindStatusRes, t.id, []byte{statusRecovering})
		return
	}
	if t.fenced {
		return // under backup control: only the termination protocol moves us
	}
	t.dprepares.add(t.cohortIdx(m.From))
	s.maybePeerPreparesDone(t)
}

// maybePeerPreparesDone commits once every peer has prepared. Requires s.mu
// held.
func (s *Site) maybePeerPreparesDone(t *txState) {
	if t.phase != phasePrepared || !t.peer {
		return
	}
	for i := range t.meta.Participants {
		if !t.dprepares.has(i) {
			return
		}
	}
	s.resolve(t, OutcomeCommitted)
}

// peerTimeout drives a stuck decentralized transaction: retransmit to
// laggards while the whole cohort is operational, run the termination
// protocol once somebody has crashed. Requires s.mu held.
func (s *Site) peerTimeout(t *txState) {
	if t.resolved() || (t.phase != phaseWait && t.phase != phasePrepared) {
		return
	}
	if t.recovering {
		s.retryRecovery(t)
		return
	}
	if t.termActive || t.fenced {
		// Termination is under way (we are the backup, or fenced by one):
		// a crashed cohort member recovering must not drop us back into the
		// normal retransmission path — fenced sites ignore that traffic, so
		// only re-driving the termination protocol can still resolve.
		s.startTermination(t)
		return
	}
	allAlive := true
	for _, p := range t.meta.Participants {
		if !s.det.Alive(p) {
			allAlive = false
			break
		}
	}
	if allAlive && !t.blocked {
		// Slow or lossy peers: rebroadcast our own round messages — a peer
		// may have missed them even if we already hold its reply, so resend
		// unconditionally (receipt is idempotent). A peer that never
		// received the transaction at all (lost D-XACT) learns it from our
		// D-YES, which carries the meta.
		body := encodeMeta(t.meta)
		for _, p := range t.meta.Participants {
			if p == s.id {
				continue
			}
			s.send(p, KindDYes, t.id, body)
			if t.phase == phasePrepared {
				s.send(p, KindDPrepare, t.id, nil)
			}
		}
		s.armTimer(t, s.protoTimeout())
		return
	}
	if s.kind == TwoPhase && t.queried {
		s.evaluateCooperative(t, true)
		if t.resolved() {
			return
		}
	}
	s.startTermination(t)
}
