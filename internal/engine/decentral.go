package engine

import (
	"fmt"

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

// BeginPeer starts a transaction under the decentralized protocol: this
// site distributes it to the whole cohort (including itself) and every site
// votes and exchanges rounds symmetrically — there is no coordinator, so
// TxMeta.Coordinator is zero and any site's failure triggers the
// termination protocol at the survivors.
func (s *Site) BeginPeer(txid string, participants []int) error {
	if s.kind == PaxosCommit {
		// Paxos Commit is inherently coordinator-replicated; the symmetric
		// peer rounds of the decentralized paradigm do not apply to it.
		return fmt.Errorf("engine: site %d: Paxos Commit has no decentralized variant", s.id)
	}
	cohort := normalizeCohort(s.id, participants)
	if len(cohort) == 1 {
		return s.Begin(txid, cohort) // no peers to exchange rounds with: one phase
	}
	if len(cohort) > maxCohort {
		return fmt.Errorf("engine: cohort of %d exceeds the %d-site limit", len(cohort), maxCohort)
	}
	meta := TxMeta{Coordinator: 0, Participants: cohort}

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
	body := encodeMeta(meta)
	for _, p := range cohort {
		if p != s.id {
			sh.send(p, KindDXact, txid, body)
		}
	}
	sh.mu.Unlock()

	// Deliver our own copy directly.
	sh.onDXact(transport.Message{From: s.id, To: s.id, Kind: KindDXact, TxID: txid, Body: body})
	return nil
}

// onDXact receives the transaction at a peer and casts the local vote.
func (s *shard) onDXact(m transport.Message) {
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
func (s *shard) onPeerVoteResult(v voteResult) {
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
	for _, p := range t.meta.Participants {
		if p != s.id {
			s.send(p, KindDYes, t.id, nil)
		}
	}
	s.armTimer(t, s.protoTimeout())
	s.maybePeerVotesDone(t)
}

// onDVote records a peer's vote. A site that has already resolved the
// transaction (e.g. it voted NO and aborted, and its NO was lost) answers a
// retransmitted vote with the outcome instead.
func (s *shard) onDVote(m transport.Message) {
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
func (s *shard) maybePeerVotesDone(t *txState) {
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
	if t.dprepares == nil {
		t.dprepares = map[int]bool{}
	}
	t.dprepares[s.id] = true
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
func (s *shard) onDPrepare(m transport.Message) {
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
	if t.dprepares == nil {
		t.dprepares = map[int]bool{}
	}
	t.dprepares[m.From] = true
	s.maybePeerPreparesDone(t)
}

// maybePeerPreparesDone commits once every peer has prepared. Requires s.mu
// held.
func (s *shard) maybePeerPreparesDone(t *txState) {
	if t.phase != phasePrepared || !t.peer {
		return
	}
	for _, p := range t.meta.Participants {
		if !t.dprepares[p] {
			return
		}
	}
	s.resolve(t, OutcomeCommitted)
}

// peerTimeout drives a stuck decentralized transaction: retransmit to
// laggards while the whole cohort is operational, run the termination
// protocol once somebody has crashed. Requires s.mu held.
func (s *shard) peerTimeout(t *txState) {
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
		// unconditionally (receipt is idempotent). A peer we hold no vote
		// from may never have received the transaction at all (lost D-XACT),
		// and votes alone cannot tell it what to vote on — resend the
		// distribution too. Any site that voted holds the full meta, so any
		// site can do this, not just the initiator.
		for _, p := range t.meta.Participants {
			if p == s.id {
				continue
			}
			if _, voted := t.dvotes[p]; !voted {
				s.send(p, KindDXact, t.id, encodeMeta(t.meta))
			}
			s.send(p, KindDYes, t.id, nil)
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
