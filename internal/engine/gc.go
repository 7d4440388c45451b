package engine

import (
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// Distributed garbage collection of resolved transactions. The protocols
// themselves never say when a site may stop remembering an outcome, so
// without GC every site's transaction table and WAL grow without bound — the
// leak that caps sustained throughput. GC always runs; its grace period is
// the budget's Forget (clock.NewBudget of Config.Timeout).
//
// The scheme is an acknowledged decision broadcast: each participant sends
// DEC-ACK to the coordinator once its own outcome record is durable, then
// forgets the transaction after a grace period (forcing an end record so
// recovery skips it). The coordinator re-sends the decision until every
// participant — crashed ones included, which re-acknowledge after recovery —
// has acknowledged, and only then forgets. The invariant this keeps: as long
// as any site might still ask about the outcome, some site still knows it.
//
// Decentralized (peer) transactions have no collection point and are never
// auto-forgotten on the normal path.

// scheduleGC begins garbage collection for a freshly resolved transaction.
// Called from resolve, so the DEC-ACK defers behind the outcome record's
// durability like any other send — the ack must not outrun the record it
// acknowledges. Requires s.mu held.
func (s *Site) scheduleGC(t *txState) {
	if t.peer {
		return
	}
	if t.phase == phaseAborted && s.presumedAbort(t) {
		// Presumed abort has no settlement: the coordinator keeps no state
		// to re-offer and nobody retains the outcome — the no-trace
		// presumption answers any future inquiry. Still run out the grace
		// period before forgetting: a protocol message that arrives late
		// for a forgotten txid recreates it through Site.tx as a new
		// transaction (see onDecAck).
		s.armTimer(t, s.forgetAfter)
		return
	}
	if t.coordinator {
		if s.decAcksComplete(t) {
			s.observeSettle(t) // single-site cohort: nothing to collect
		}
		s.armTimer(t, s.forgetAfter)
		return
	}
	if c := t.meta.Coordinator; c != 0 && c != s.id {
		s.send(c, KindDecAck, t.id, nil)
	}
	s.armTimer(t, s.forgetAfter)
}

// gcTimeout fires for a transaction that is already resolved: a
// participant's grace period expired (forget), or the coordinator re-offers
// the decision to participants that have not acknowledged it yet. Requires
// s.mu held.
func (s *Site) gcTimeout(t *txState) {
	if t.peer {
		return
	}
	if !t.coordinator {
		s.forgetLocked(t)
		return
	}
	if t.phase == phaseAborted && s.presumedAbort(t) {
		s.forgetLocked(t) // presumed abort: nothing to re-offer
		return
	}
	if s.decAcksComplete(t) {
		s.forgetLocked(t)
		return
	}
	for i, p := range t.meta.Participants {
		if p != s.id && !t.decAcks.has(i) && !t.readonly.has(i) && s.det.Alive(p) {
			s.sendOutcome(p, t)
		}
	}
	s.armTimer(t, s.forgetAfter)
}

// decAcksComplete reports whether every other participant has acknowledged
// the decision. Crashed participants are NOT waived: they re-acknowledge
// after recovery, and until then the coordinator must keep the outcome.
// Requires s.mu held.
func (s *Site) decAcksComplete(t *txState) bool {
	for i, p := range t.meta.Participants {
		if p != s.id && !t.decAcks.has(i) && !t.readonly.has(i) {
			return false
		}
	}
	return true
}

// onDecAck collects a participant's decision acknowledgement at the
// coordinator; once the whole cohort has acknowledged, nobody will ever ask
// about this transaction again and it can be forgotten.
func (s *Site) onDecAck(m transport.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[m.TxID]
	if !ok || !t.coordinator || !t.resolved() {
		return
	}
	t.decAcks.add(t.cohortIdx(m.From))
	if s.decAcksComplete(t) {
		s.observeSettle(t)
		// Do not forget inline: a protocol message still in flight for this
		// txid would recreate it through Site.tx as a new, undecided
		// transaction. Under Paxos Commit, forgetting at the last DEC-ACK
		// fails DST's availability check (seeds 16, 35 and 49 of
		// `dst -protocol all -seeds 50`): on seed 16 the DEC-ACKs land at
		// steps 17-18, a late PX-2A from site 1 recreates t1 at site 3 at
		// step 19, and site 3 then asks itself DECIDE-REQ forever. The grace
		// period outlasts such stragglers. (The starter's answer needs no
		// grace: its Handle holds the record.)
		s.armTimer(t, s.forgetAfter)
	}
}

// forgetLocked garbage-collects a resolved transaction: it appends an end
// record (so recovery — and WAL compaction — skip the transaction entirely)
// and drops the in-memory state. The end record is lazy, never forced:
// losing it in a crash merely makes recovery re-read the transaction's
// records and re-run idempotent garbage collection. A one-phase abort wrote
// nothing, so it gets no end record either. Requires s.mu held and t
// resolved.
func (s *Site) forgetLocked(t *txState) {
	if !(t.onePhase() && t.phase == phaseAborted) {
		s.mustLogLazy(wal.Record{Type: wal.RecEnd, TxID: t.id})
	}
	s.stopTimer(t)
	delete(s.txns, t.id)
}
