package engine

import (
	"fmt"
	"math/bits"

	"nbcommit/internal/paxos"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit") on the
// engine substrate. One Paxos consensus instance per cohort member's vote;
// the cohort members themselves are the 2F+1 acceptors (N = 2F+1 for an
// N-site cohort), so the decision is replicated and the death of the
// coordinator — or of any F sites — never invokes a termination protocol:
// a surviving site simply leads a higher ballot, learns what the acceptors
// durably hold, and completes the decision.
//
// Fault-free flow (ballot 0, the phase-1a skip: every acceptor is born
// having promised ballot 0, and instance i's ballot-0 proposer is
// participant i itself):
//
//	coordinator          participant i           other acceptors
//	  │── VOTE-REQ ────────►│                        │
//	  │                     │ prepare, force         │
//	  │                     │ vote-yes record        │
//	  │                     │ (= accept (0,i,'y')    │
//	  │                     │  at its own acceptor)  │
//	  │◄─── PX-2B(0,i,'y') ─┤── PX-2A(0,i,'y') ─────►│ force accept record
//	  │◄────────────────────┼──── PX-2B(0,i,'y') ────┤
//	  │ majority per instance → all 'y' → commit     │
//	  │── COMMIT ──────────►│                        │
//
// The coordinator is itself an acceptor: its own vote-yes record doubles as
// the ballot-0 accept of its instance, and its co-located acceptor's 2b
// messages are delivered inline. The decision needs only a majority of 2b
// messages per instance, so with N = 3 the coordinator decides from its own
// acceptor plus each instance owner's — two message delays after VOTE-REQ,
// the same as 2PC and two fewer than 3PC.
//
// Abort safety without consensus: a decision to abort is safe exactly when
// commit is provably unreachable, because every leader that completes the
// decision by the chosen-value rule then also decides abort. Commit is
// unreachable whenever some instance can never choose 'y', which holds when
//   - the instance's owner voted NO (it is the only ballot-0 proposer of
//     its instance and never proposes 'y'; recovery leaders propose 'y'
//     only when merging an accepted 'y', which then cannot exist), or
//   - 'n' was chosen for the instance (consensus chooses one value).
// A leader that merely PROPOSES 'n' (it saw the instance free in phase 1)
// must still wait for 'n' to be chosen: a competing leader may legitimately
// learn a surviving ballot-0 'y' that this leader's quorum missed.
//
// Ballot escalation: a leader timeout, an observed coordinator crash, or a
// PX-NUDGE at the deterministically elected takeover site starts phase 1 at
// a ballot above everything seen, with the site's cohort index in the low
// bits so concurrent leaders never collide on a number. Phase 1 merges the
// highest accepted value per instance from a majority of 1b replies;
// phase 2 re-proposes merged values ('n' for free instances).
//
// Durability: acceptors force RecPaxosPromise / RecPaxosAccept records
// through the group-commit WAL before their 1b/2b replies leave the site
// (the engine's standard force-before-act discipline — replies are staged
// behind the record's batch), and recovery rebuilds acceptor state by
// replaying those records in log order.

// paxosTx is a site's Paxos Commit state for one transaction: its acceptor
// half (always present) and, when this site drives the decision, the leader
// half.
type paxosTx struct {
	acc *paxos.Acceptor // durable via RecVoteYes/RecPaxosPromise/RecPaxosAccept

	leading  bool             // this site currently drives the decision
	ballot   paxos.Ballot     // ballot we lead at (0: coordinator fast path)
	proms    cohortSet        // phase 1: acceptors that promised our ballot
	merged   []paxos.Accepted // phase 1: highest accepted value per instance
	proposed bool             // phase 2 underway for our ballot
	tallies  []paxos.Tally    // per-instance 2b counts
	chosen   []byte           // per-instance chosen value (ValNone until majority)
	maxSeen  paxos.Ballot     // highest ballot observed anywhere (for Next)
}

// ensurePaxos attaches (creating if needed) the transaction's Paxos state.
// The cohort must be known. Requires s.mu held.
func (s *Site) ensurePaxos(t *txState) *paxosTx {
	if t.px == nil {
		n := len(t.meta.Participants)
		t.px = &paxosTx{
			acc:     paxos.NewAcceptor(n),
			tallies: make([]paxos.Tally, n),
			chosen:  make([]byte, n),
		}
	}
	return t.px
}

// paxosLeaderOf resolves a ballot's leader site: ballot 0 belongs to the
// coordinator (each participant proposes only its own instance under it);
// higher ballots carry the leader's cohort index.
func (s *Site) paxosLeaderOf(t *txState, bal paxos.Ballot) int {
	if bal == 0 {
		return t.meta.Coordinator
	}
	if i := bal.Leader(); i < len(t.meta.Participants) {
		return t.meta.Participants[i]
	}
	return t.meta.Coordinator
}

// adoptPaxosMeta installs cohort metadata carried by a Paxos message on a
// transaction this site has never executed (its VOTE-REQ was lost, or it is
// being engaged purely as an acceptor). Requires s.mu held.
func adoptPaxosMeta(t *txState, metaBytes []byte) bool {
	if len(t.meta.Participants) > 0 {
		return true
	}
	meta, err := decodeMeta(metaBytes)
	if err != nil || len(meta.Participants) == 0 || len(meta.Participants) > maxCohort {
		return false
	}
	t.meta = meta
	t.detached = true
	return true
}

// paxosOwnVote finishes the coordinator's local prepare under Paxos Commit:
// the vote-yes record doubles as the co-located acceptor's ballot-0 accept
// of the coordinator's own instance, the instance is proposed to the other
// acceptors, and the coordinator starts tallying 2b messages as the
// ballot-0 leader. Requires s.mu held.
func (s *Site) paxosOwnVote(t *txState, redo []byte) {
	px := s.ensurePaxos(t)
	t.redo = redo
	t.ownYes = true
	if px.acc.Promised > 0 {
		// A recovery ballot already outbid the fast path (we were slow or
		// partitioned); the consensus in flight decides. Keep supervising.
		s.armTimer(t, s.protoTimeout())
		return
	}
	me := t.cohortIdx(s.id)
	s.record("vote-yes", t.id, "")
	s.mustLog(wal.Record{Type: wal.RecVoteYes, TxID: t.id, Payload: encodeVotePayload(t.meta, redo)})
	px.acc.Accept(0, me, paxos.ValYes)
	px.leading, px.ballot = true, 0
	body := paxos.EncodeP2a(0, me, paxos.ValYes, encodeMeta(t.meta))
	for _, p := range t.meta.Participants {
		if p != s.id {
			s.send(p, KindPx2a, t.id, body)
		}
	}
	s.armTimer(t, s.protoTimeout())
	// The co-located acceptor's 2b, delivered inline (may already decide a
	// single-site cohort).
	s.paxos2b(t, 0, me, paxos.ValYes, s.id)
}

// paxosVoteYes finishes a participant's local prepare under Paxos Commit:
// force the vote-yes record (the ballot-0 self-accept of this site's own
// instance), send the co-located acceptor's 2b to the ballot-0 leader, and
// propose the instance to the remaining acceptors. Requires s.mu held.
func (s *Site) paxosVoteYes(t *txState, redo []byte) {
	px := s.ensurePaxos(t)
	// The resource holds this transaction prepared from here on; the
	// eventual decision must reach it even if this site was first engaged
	// as a detached acceptor.
	t.detached = false
	if px.acc.Promised > 0 {
		// A recovery ballot outbid our unborn ballot-0 proposal: the
		// self-accept is no longer permitted, so the vote is moot. The
		// consensus in flight can only choose 'n' for our instance (nobody
		// ever proposed 'y' for it); wait for the abort.
		s.armTimer(t, s.protoTimeout())
		return
	}
	t.redo = redo
	me := t.cohortIdx(s.id)
	s.record("vote-yes", t.id, "")
	s.mustLog(wal.Record{Type: wal.RecVoteYes, TxID: t.id, Payload: encodeVotePayload(t.meta, redo)})
	px.acc.Accept(0, me, paxos.ValYes)
	t.phase = phaseWait
	s.send(t.meta.Coordinator, KindPx2b, t.id, paxos.EncodeP2b(0, me, paxos.ValYes))
	// Every other cohort member — the ballot-0 leader included, whose
	// acceptor learns the instance through its PX-2A copy — accepts and
	// replies 2b to the leader.
	body := paxos.EncodeP2a(0, me, paxos.ValYes, encodeMeta(t.meta))
	for _, p := range t.meta.Participants {
		if p != s.id {
			s.send(p, KindPx2a, t.id, body)
		}
	}
	s.armTimer(t, s.protoTimeout())
}

// onPx1a answers a recovery leader's phase-1a at this site's acceptor:
// promise the ballot (forced to the WAL before the reply leaves) and report
// everything accepted so far.
func (s *Site) onPx1a(m transport.Message) {
	bal, metaBytes, err := paxos.DecodeP1a(m.Body)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tx(m.TxID)
	if !adoptPaxosMeta(t, metaBytes) {
		return
	}
	if t.resolved() {
		s.sendOutcome(m.From, t)
		return
	}
	px := s.ensurePaxos(t)
	if prev := px.acc.Promised; px.acc.Promise(bal) && bal > prev {
		s.record("px-promise", t.id, fmt.Sprintf("ballot %d", bal))
		s.mustLog(wal.Record{Type: wal.RecPaxosPromise, TxID: t.id, Payload: m.Body})
	}
	s.send(m.From, KindPx1b, t.id, paxos.EncodeP1b(px.acc.Promised, px.acc.Accepts))
	if t.deadline.IsZero() {
		s.armTimer(t, s.protoTimeout())
	}
}

// onPx1b folds an acceptor's phase-1b into this leader's merge; a majority
// of promises starts phase 2.
func (s *Site) onPx1b(m transport.Message) {
	promised, accepts, err := paxos.DecodeP1b(m.Body)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[m.TxID]
	if !ok || t.resolved() || t.px == nil || !t.px.leading {
		return
	}
	px := t.px
	if promised > px.ballot {
		// Outbid: a higher leader is active. Stand down and supervise —
		// the timer re-elects (and escalates) if it stalls.
		px.maxSeen = promised
		px.leading = false
		s.armTimer(t, s.protoTimeout())
		return
	}
	if promised < px.ballot {
		return // stale reply from an earlier round
	}
	idx := t.cohortIdx(m.From)
	if idx < 0 {
		return
	}
	paxos.Merge(px.merged, accepts)
	px.proms.add(idx)
	if !px.proposed && bits.OnesCount64(uint64(px.proms)) >= paxos.Majority(len(t.meta.Participants)) {
		s.paxosPropose(t)
	}
}

// paxosPropose runs phase 2 for every instance at this leader's ballot:
// re-propose the merged value where one survives, 'n' where the instance is
// free (its ballot-0 'y' can no longer reach a majority once our promise
// quorum saw it free). Requires s.mu held.
func (s *Site) paxosPropose(t *txState) {
	px := t.px
	px.proposed = true
	meta := encodeMeta(t.meta)
	s.record("px-propose", t.id, fmt.Sprintf("ballot %d", px.ballot))
	for i := range t.meta.Participants {
		val := paxos.ValAbort
		if px.merged[i].Val == paxos.ValYes {
			val = paxos.ValYes
		}
		// Self-accept first, forced to the WAL like any acceptor's.
		if !px.acc.Accept(px.ballot, i, val) {
			// Our own acceptor promised past us mid-round: stand down.
			px.maxSeen = px.acc.Promised
			px.leading = false
			s.armTimer(t, s.protoTimeout())
			return
		}
		body := paxos.EncodeP2a(px.ballot, i, val, meta)
		s.mustLog(wal.Record{Type: wal.RecPaxosAccept, TxID: t.id, Payload: body})
		for _, p := range t.meta.Participants {
			if p != s.id {
				s.send(p, KindPx2a, t.id, body)
			}
		}
		s.paxos2b(t, px.ballot, i, val, s.id)
		if t.resolved() {
			return
		}
	}
	s.armTimer(t, s.protoTimeout())
}

// onPx2a accepts (or rejects) a proposed instance value at this site's
// acceptor, forcing the accept record before the 2b reply leaves.
func (s *Site) onPx2a(m transport.Message) {
	bal, inst, val, metaBytes, err := paxos.DecodeP2a(m.Body)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tx(m.TxID)
	if !adoptPaxosMeta(t, metaBytes) {
		return
	}
	if t.resolved() {
		s.sendOutcome(m.From, t)
		return
	}
	px := s.ensurePaxos(t)
	if inst >= len(px.acc.Accepts) {
		return
	}
	if !px.acc.Accept(bal, inst, val) {
		// Our promise outranks the proposal: tell the proposer what it
		// must outbid.
		s.send(m.From, KindPx2b, t.id, paxos.EncodeP2b(px.acc.Promised, inst, paxos.ValNone))
		return
	}
	s.mustLog(wal.Record{Type: wal.RecPaxosAccept, TxID: t.id, Payload: m.Body})
	if leader := s.paxosLeaderOf(t, bal); leader == s.id {
		s.paxos2b(t, bal, inst, val, s.id)
	} else {
		s.send(leader, KindPx2b, t.id, paxos.EncodeP2b(bal, inst, val))
	}
	if !t.resolved() && t.deadline.IsZero() {
		s.armTimer(t, s.protoTimeout())
	}
}

// onPx2b tallies an acceptor's 2b at the ballot leader.
func (s *Site) onPx2b(m transport.Message) {
	bal, inst, val, err := paxos.DecodeP2b(m.Body)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[m.TxID]
	if !ok || t.resolved() || len(t.meta.Participants) == 0 {
		return
	}
	s.ensurePaxos(t)
	s.paxos2b(t, bal, inst, val, m.From)
}

// paxos2b folds one acceptor's 2b (possibly this site's own, delivered
// inline) into the tallies; a majority chooses the instance's value, and
// chosen values decide the transaction. Requires s.mu held.
func (s *Site) paxos2b(t *txState, bal paxos.Ballot, inst int, val byte, from int) {
	px := t.px
	if px == nil || t.resolved() || inst >= len(px.tallies) {
		return
	}
	if val == paxos.ValNone {
		// Nack: an acceptor's promise outranks the ballot we proposed at.
		if bal > px.maxSeen {
			px.maxSeen = bal
		}
		if px.leading && bal > px.ballot {
			px.leading = false
			s.armTimer(t, s.protoTimeout())
		}
		return
	}
	if bal > px.maxSeen {
		px.maxSeen = bal
	}
	if val == paxos.ValAbort && bal == 0 {
		// Ballot-0 'n' comes only from the instance owner's unilateral NO;
		// the owner never proposes 'y', so commit is unreachable and abort
		// is safe without waiting for the value to be chosen.
		s.record("px-abort", t.id, "owner voted no")
		s.decideAbort(t)
		return
	}
	if px.chosen[inst] != paxos.ValNone {
		return
	}
	if px.tallies[inst].Add(bal, val, t.cohortIdx(from)) >= paxos.Majority(len(t.meta.Participants)) {
		px.chosen[inst] = px.tallies[inst].Val
		s.maybeDecidePaxos(t)
	}
}

// maybeDecidePaxos completes the decision from chosen instance values:
// abort the moment any instance chooses 'n' (consensus forecloses 'y' for
// it, so commit is unreachable), commit when every instance chose 'y'.
// Requires s.mu held.
func (s *Site) maybeDecidePaxos(t *txState) {
	px := t.px
	all := true
	for i := range t.meta.Participants {
		switch px.chosen[i] {
		case paxos.ValAbort:
			s.record("px-abort", t.id, "instance chose n")
			s.decideAbort(t)
			return
		case paxos.ValNone:
			all = false
		}
	}
	if all {
		s.record("px-commit", t.id, "all instances chose y")
		s.decideCommit(t)
	}
}

// startPaxosBallot makes this site the leader at ballot b: promise b at the
// co-located acceptor (forced), fold its own accepts into the merge, and
// run phase 1a against the rest of the cohort. Requires s.mu held.
func (s *Site) startPaxosBallot(t *txState, b paxos.Ballot) {
	if t.resolved() {
		return
	}
	px := s.ensurePaxos(t)
	if !px.acc.Promise(b) {
		// Our own acceptor has promised someone higher; supervise them.
		if px.acc.Promised > px.maxSeen {
			px.maxSeen = px.acc.Promised
		}
		s.armTimer(t, s.protoTimeout())
		return
	}
	s.record("px-lead", t.id, fmt.Sprintf("ballot %d", b))
	body := paxos.EncodeP1a(b, encodeMeta(t.meta))
	// The promise record carries the 1a body: recovery reads it with DecodeP1a.
	s.mustLog(wal.Record{Type: wal.RecPaxosPromise, TxID: t.id, Payload: body})
	px.leading, px.ballot, px.proposed = true, b, false
	px.proms = 0
	px.merged = make([]paxos.Accepted, len(t.meta.Participants))
	paxos.Merge(px.merged, px.acc.Accepts)
	px.proms.add(t.cohortIdx(s.id))
	if b > px.maxSeen {
		px.maxSeen = b
	}
	for _, p := range t.meta.Participants {
		if p != s.id {
			s.send(p, KindPx1a, t.id, body)
		}
	}
	s.armTimer(t, s.protoTimeout())
	if bits.OnesCount64(uint64(px.proms)) >= paxos.Majority(len(t.meta.Participants)) {
		s.paxosPropose(t) // single-site cohort: our own promise is a majority
	}
}

// paxosEscalate starts (or restarts) leadership above every ballot this
// site has seen. Requires s.mu held.
func (s *Site) paxosEscalate(t *txState) {
	px := s.ensurePaxos(t)
	high := px.maxSeen
	if px.acc.Promised > high {
		high = px.acc.Promised
	}
	if px.ballot > high {
		high = px.ballot
	}
	s.startPaxosBallot(t, paxos.Next(high, t.cohortIdx(s.id)))
}

// paxosLeaderCrashCheck re-evaluates a coordinated Paxos transaction after
// cohort member idx crashed. If the crashed site's instance already chose a
// value the decision no longer needs it (a majority of acceptors survives
// any F = (N-1)/2 crashes); otherwise its ballot-0 self-accept may be
// stranded in its log, so escalate and learn what the surviving acceptors
// hold. Requires s.mu held.
func (s *Site) paxosLeaderCrashCheck(t *txState, idx int) {
	if t.px != nil && idx < len(t.px.chosen) && t.px.chosen[idx] != paxos.ValNone {
		return
	}
	s.paxosEscalate(t)
}

// paxosTakeover reacts to a dead (or refusing) coordinator: the
// deterministically elected survivor leads a recovery ballot; everyone else
// nudges it and supervises. This replaces the cohort termination protocol —
// no TERM-STATE/TERM-ACK round ever runs under Paxos Commit. Requires s.mu
// held.
func (s *Site) paxosTakeover(t *txState) {
	if t.resolved() || t.recovering {
		return
	}
	leader, ok := s.electBackup(t)
	if !ok {
		s.armTimer(t, s.protoTimeout())
		return
	}
	if leader == s.id {
		s.paxosEscalate(t)
		return
	}
	s.send(leader, KindPxNudge, t.id, encodeMeta(t.meta))
	s.armTimer(t, s.protoTimeout())
}

// onPxNudge wakes the elected takeover site: a peer observed the
// coordinator dead and this site is its choice of leader.
func (s *Site) onPxNudge(m transport.Message) {
	meta, err := decodeMeta(m.Body)
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tx(m.TxID)
	if len(t.meta.Participants) == 0 {
		t.meta = meta
		t.detached = true
	}
	if t.resolved() {
		s.sendOutcome(m.From, t)
		return
	}
	if t.recovering {
		// In doubt after our own crash: refuse leadership so the nudger
		// excludes us and re-elects.
		s.send(m.From, KindDecideRes, t.id, []byte{statusRecovering})
		return
	}
	if leader, ok := s.electBackup(t); ok && leader == s.id && (t.px == nil || !t.px.leading) {
		s.paxosEscalate(t)
		return
	}
	if t.deadline.IsZero() {
		s.armTimer(t, s.protoTimeout())
	}
}

// paxosParticipantTimeout drives a Paxos transaction whose wait expired at
// a non-coordinator site: an active leader escalates its ballot; otherwise
// a live coordinator is nudged for the decision, and a dead one triggers
// takeover. Requires s.mu held.
func (s *Site) paxosParticipantTimeout(t *txState) {
	if t.px != nil && t.px.leading {
		s.paxosEscalate(t)
		return
	}
	if c := t.meta.Coordinator; c != 0 && s.det.Alive(c) {
		s.send(c, KindDecideReq, t.id, nil)
		s.armTimer(t, s.protoTimeout())
		return
	}
	s.paxosTakeover(t)
}
