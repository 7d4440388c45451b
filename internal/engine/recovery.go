package engine

import (
	"fmt"
	"sort"

	"nbcommit/internal/paxos"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// Recover builds a Site from its surviving write-ahead log after a crash,
// implementing the paper's recovery protocol ("invoked by a crashed site to
// resume transaction processing upon recovery"):
//
//   - committed transactions are redone into the fresh resource (redo from
//     the log, no checkpointing in this reference implementation);
//   - transactions this site coordinated without reaching an outcome are
//     aborted (the failure occurred before the commit point) and the abort
//     is broadcast to the cohort — this is what eventually unblocks 2PC
//     participants stuck in their uncertainty window;
//   - transactions this site coordinated to an outcome are re-broadcast, in
//     case the decision messages were lost in the crash;
//   - in-doubt participant transactions (voted YES / prepared, no outcome)
//     enter the recovering state: the site queries the cohort with
//     DECIDE-REQ until some operational site reports the outcome, and it
//     refuses the backup-coordinator role meanwhile.
//
// The returned site is started; callers should not call Start again.
func Recover(cfg Config) (*Site, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	recs, err := s.log.Records()
	if err != nil {
		return nil, fmt.Errorf("engine: recovery cannot read WAL: %w", err)
	}

	// Redo committed effects in log order.
	for _, r := range recs {
		if r.Type == wal.RecCommitted && len(r.Payload) > 0 {
			if err := s.res.ApplyRedo(r.Payload); err != nil {
				return nil, fmt.Errorf("engine: recovery redo of %s: %w", r.TxID, err)
			}
		}
	}

	images := wal.Replay(recs)
	// Deterministic iteration keeps recovery reproducible.
	ids := make([]string, 0, len(images))
	for id := range images {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	var pending []*txState // resolved coordinator txns: re-broadcast outcome
	var inDoubt []*txState

	for _, id := range ids {
		img := images[id]
		s.mu.Lock()
		t := s.tx(id)
		t.detached = true
		t.coordinator = img.Coordinator
		if img.Coordinator && len(img.Begin) > 0 {
			if meta, err := decodeMeta(img.Begin); err == nil {
				t.meta = meta
			}
		}
		switch img.Status {
		case wal.StatusEnded:
			// Already garbage-collected before the crash: the cohort
			// acknowledged the decision, so do not resume the coordinator's
			// re-send duty for it. Only a commit record makes it a commit.
			t.phase = phaseAborted
			if img.Committed {
				t.phase = phaseCommitted
			}
			close(t.done)
			t.coordinator = false
		case wal.StatusCommitted:
			t.phase = phaseCommitted
			close(t.done)
			if img.Coordinator {
				pending = append(pending, t)
			}
		case wal.StatusAborted, wal.StatusVotedNo:
			if img.Status == wal.StatusVotedNo {
				// Crashed between logging the NO vote and the abort record.
				s.mustLog(wal.Record{Type: wal.RecAborted, TxID: id})
			}
			t.phase = phaseAborted
			close(t.done)
			if img.Coordinator {
				pending = append(pending, t)
			}
		case wal.StatusBegun:
			// Coordinator crashed before its commit point: abort. Under
			// presumed-abort 2PC the abort needs no record — no committed
			// record already reads as abort, and in-doubt participants that
			// ask are answered with 'n'. Other families force the decision
			// so their re-broadcast duty survives a second crash.
			if !(cfg.Protocol == TwoPhase && img.Coordinator) {
				s.mustLog(wal.Record{Type: wal.RecAborted, TxID: id})
			}
			t.phase = phaseAborted
			close(t.done)
			pending = append(pending, t)
		case wal.StatusVotedYes, wal.StatusPrepared:
			vp, err := decodeVotePayload(img.Last)
			if err != nil {
				s.mu.Unlock()
				return nil, fmt.Errorf("engine: recovery cannot decode vote payload of %s: %w", id, err)
			}
			t.meta = vp.Meta
			t.redo = vp.Redo
			if img.Status == wal.StatusPrepared {
				t.phase = phasePrepared
			} else {
				t.phase = phaseWait
			}
			if img.Coordinator {
				// A 3PC coordinator that crashed after logging prepared:
				// it is in doubt like any participant (the cohort may have
				// terminated either way... only commit is possible from p,
				// but a backup may have moved the cohort; ask).
				t.coordinator = false
			}
			t.recovering = true
			inDoubt = append(inDoubt, t)
		}
		s.mu.Unlock()
	}

	// Rebuild Paxos acceptor state by replaying the consensus records in
	// log order — the promise/accept guards re-apply exactly as they were
	// originally taken, so the rebuilt state equals the pre-crash state. At
	// a Paxos site the vote-yes record doubles as the co-located ballot-0
	// accept of the site's own instance. Transactions known only through
	// acceptor records (this site never executed them) are chased after
	// start so a decision broadcast lost in the crash cannot strand them.
	chase := map[string]bool{}
	for _, r := range recs {
		isPaxos := r.Type == wal.RecPaxosPromise || r.Type == wal.RecPaxosAccept
		if !isPaxos && !(r.Type == wal.RecVoteYes && cfg.Protocol == PaxosCommit) {
			continue
		}
		s.mu.Lock()
		t := s.tx(r.TxID)
		known := len(t.meta.Participants) > 0
		switch r.Type {
		case wal.RecPaxosPromise:
			// A promise record carries a 1a body (startPaxosBallot).
			if bal, mb, err := paxos.DecodeP1a(r.Payload); err == nil {
				if !known {
					known = adoptPaxosMeta(t, mb)
				}
				if known {
					s.ensurePaxos(t).acc.Promise(bal)
				}
			}
		case wal.RecPaxosAccept:
			if bal, inst, val, mb, err := paxos.DecodeP2a(r.Payload); err == nil {
				if !known {
					known = adoptPaxosMeta(t, mb)
				}
				if known {
					s.ensurePaxos(t).acc.Accept(bal, inst, val)
				}
			}
		case wal.RecVoteYes:
			if me := t.cohortIdx(s.id); known && me >= 0 {
				s.ensurePaxos(t).acc.Accept(0, me, paxos.ValYes)
			}
		}
		if t.px != nil && !t.resolved() && !t.recovering {
			chase[r.TxID] = true
		}
		s.mu.Unlock()
	}

	s.Start()

	// Post-start actions go through the normal send path.
	for _, t := range pending {
		s.mu.Lock()
		s.broadcastOutcome(t)
		s.mu.Unlock()
	}
	for _, t := range inDoubt {
		s.mu.Lock()
		s.queryOutcome(t)
		s.mu.Unlock()
	}
	if len(chase) > 0 {
		cids := make([]string, 0, len(chase))
		for id := range chase {
			cids = append(cids, id)
		}
		sort.Strings(cids)
		for _, id := range cids {
			s.mu.Lock()
			if t, ok := s.txns[id]; ok && !t.resolved() && !t.recovering {
				s.armTimer(t, s.protoTimeout())
			}
			s.mu.Unlock()
		}
	}
	// Resume garbage collection for resolved transactions that survived the
	// crash: coordinators re-collect DEC-ACKs, participants forget after the
	// grace period. Decentralized transactions (known cohort, no
	// coordinator) stay: with no collection point, forgetting could strand a
	// recovering peer with nobody who remembers the outcome.
	for _, id := range ids {
		s.mu.Lock()
		t, ok := s.txns[id]
		if !ok || !t.resolved() {
			s.mu.Unlock()
			continue
		}
		if t.meta.Coordinator == 0 && !t.coordinator && len(t.meta.Participants) > 0 {
			s.mu.Unlock()
			continue
		}
		s.armTimer(t, s.forgetAfter)
		s.mu.Unlock()
	}
	return s, nil
}

// queryOutcome asks every operational cohort member for the transaction's
// outcome. Requires s.mu held.
func (s *Site) queryOutcome(t *txState) {
	for _, p := range t.meta.Participants {
		if p != s.id && s.det.Alive(p) {
			s.send(p, KindDecideReq, t.id, nil)
		}
	}
	s.armTimer(t, s.protoTimeout())
}

// retryRecovery re-queries the cohort for an in-doubt transaction. Requires
// s.mu held.
func (s *Site) retryRecovery(t *txState) {
	s.queryOutcome(t)
}

// onDecideReq answers an outcome query: from a recovering site, a blocked
// participant nudging its coordinator, or anyone else.
func (s *Site) onDecideReq(m transport.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[m.TxID]
	if !ok {
		// No trace at all. Under presumed abort this is itself an answer:
		// from the 2PC coordinator the asker reads it as abort (a commit
		// would have left a forced record); from anyone else it means "no
		// information, stop waiting on me". Distinct from '?', which says
		// "in progress, ask again".
		s.send(m.From, KindDecideRes, m.TxID, []byte{statusNoTrace})
		return
	}
	switch {
	case t.phase == phaseCommitted:
		s.send(m.From, KindDecideRes, m.TxID, []byte{'c'})
	case t.phase == phaseAborted:
		s.send(m.From, KindDecideRes, m.TxID, []byte{'a'})
	case t.recovering:
		// In doubt after a crash: unlike a merely slow site, we can NEVER
		// resolve this on our own, so "no answer yet" would make the asker
		// wait on us forever. Say so explicitly.
		s.send(m.From, KindDecideRes, m.TxID, []byte{statusRecovering})
	default:
		s.send(m.From, KindDecideRes, m.TxID, []byte{'?'})
	}
}

// onDecideRes resolves an in-doubt transaction when a peer knows the
// outcome.
func (s *Site) onDecideRes(m transport.Message) {
	if len(m.Body) < 1 || m.Body[0] == '?' {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[m.TxID]
	if !ok || t.resolved() {
		return
	}
	switch m.Body[0] {
	case 'c':
		t.recovering = false
		s.resolve(t, OutcomeCommitted)
	case 'a':
		t.recovering = false
		s.resolve(t, OutcomeAborted)
	case statusNoTrace:
		// The answering site has no trace of the transaction. From the 2PC
		// coordinator that is the presumed-abort verdict: it never forced a
		// commit record, so it never sent COMMIT. From anyone else (an
		// ex-read-only member, a site that already forgot a settled abort)
		// it is no information: an in-doubt asker keeps querying until
		// someone who knows — ultimately the coordinator — answers, and a
		// non-recovering asker excludes the site and terminates among the
		// rest.
		if s.kind == TwoPhase && !t.peer && t.meta.Coordinator != 0 && m.From == t.meta.Coordinator {
			s.record("presume-abort", t.id, "coordinator has no trace")
			t.recovering = false
			s.resolve(t, OutcomeAborted)
			return
		}
		if t.recovering {
			// Generalized presumption, any protocol: every commit-deciding
			// path (coordinator, 3PC backup, Paxos takeover leader) claims
			// the settlement collection point and retains the outcome until
			// this site acknowledges it, so a commit this site might still
			// ask about always has a living witness. An abort does not — a
			// unilateral NO-voter settles as an ordinary participant and the
			// whole cohort may forget. So once every other cohort member has
			// answered "no trace", no commit witness exists and the
			// transaction cannot have committed anywhere: presume abort.
			if !t.peer {
				t.noTrace.add(t.cohortIdx(m.From))
				all := true
				for i, p := range t.meta.Participants {
					if p != s.id && !t.noTrace.has(i) {
						all = false
						break
					}
				}
				if all {
					s.record("presume-abort", t.id, "no cohort member has any trace")
					t.recovering = false
					s.resolve(t, OutcomeAborted)
					return
				}
			}
			return // keep querying; someone who knows must answer
		}
		t.excluded.add(t.cohortIdx(m.From))
		if s.kind == PaxosCommit {
			s.paxosTakeover(t)
			return
		}
		s.startTermination(t)
	case statusRecovering:
		// The site we were waiting on is itself in doubt after a crash —
		// typically a recovered coordinator we keep nudging. It will never
		// decide on its own; exclude it and run the termination protocol
		// among the operational sites instead.
		if t.recovering {
			return // both in doubt: keep querying, someone else must know
		}
		t.excluded.add(t.cohortIdx(m.From))
		if s.kind == PaxosCommit {
			s.paxosTakeover(t) // re-elect the takeover leader without it
			return
		}
		s.startTermination(t)
	}
}

// InDoubt reports the transactions this site cannot yet resolve after
// recovery, sorted by ID.
func (s *Site) InDoubt() []string {
	var out []string
	s.mu.Lock()
	for id, t := range s.txns {
		if t.recovering && !t.resolved() {
			out = append(out, id)
		}
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out
}
