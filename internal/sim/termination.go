package sim

// startTermination runs when a coordinator failure impairs the commit
// protocol: the paper's backup-coordinator termination protocol.
func (st *site) startTermination() {
	if st.final() || st.crashed {
		return
	}
	st.terminating = true
	backup, ok := st.electBackup()
	if !ok {
		return
	}
	if backup == st.id {
		st.runBackup()
		return
	}
	// Tell the backup to act; it may be in q and unaware of its role.
	st.send(backup, kNudge, 0)
}

// electBackup picks the lowest-numbered operational site, excluding the
// central coordinator (whose crash triggered termination in the first
// place; a recovered coordinator rejoins via the recovery protocol, not
// here).
func (st *site) electBackup() (int, bool) {
	for i := 2; i <= st.r.cfg.N; i++ {
		if i == st.id || st.r.net.Reachable(st.id, i) {
			return i, true
		}
	}
	return 0, false
}

// onNudge makes the elected backup act.
func (st *site) onNudge() {
	if st.final() {
		// Already decided: just re-broadcast the outcome.
		kind := kAbort
		if st.phase == 'c' {
			kind = kCommit
		}
		st.broadcast(st.aliveOthers(), kind, 0)
		return
	}
	if st.r.cfg.Protocol == Quorum3PC {
		if backup, ok := st.electQuorumBackup(); ok && backup == st.id {
			st.startQuorumTermination()
		}
		return
	}
	if backup, ok := st.electBackup(); ok && backup == st.id {
		st.runBackup()
	}
}

// runBackup executes the backup coordinator procedure: phase 1 synchronizes
// every operational site to the backup's local state; phase 2 issues the
// decision from the paper's rule (commit iff the backup's state is p or c).
func (st *site) runBackup() {
	st.terminating = true
	if st.final() {
		kind := kAbort
		if st.phase == 'c' {
			kind = kCommit
		}
		st.broadcast(st.aliveOthers(), kind, 0)
		return
	}
	st.termAcks = map[int]bool{}
	if st.r.cfg.SkipBackupPhase1 {
		// A1 ablation: no synchronizing round. Unsafe if this backup then
		// crashes mid-decision broadcast.
		st.termDecide()
		return
	}
	st.broadcast(st.termTargets(), kTermState, st.phase)
	st.maybeTermPhase2()
}

// termTargets lists the operational sites the backup must synchronize.
func (st *site) termTargets() []int {
	var out []int
	for _, id := range st.aliveOthers() {
		if id != 1 {
			out = append(out, id)
		}
	}
	return out
}

// onTermState adopts the backup coordinator's state (phase 1).
func (st *site) onTermState(m Msg) {
	if st.crashed {
		return
	}
	if st.final() {
		// Inform the backup of the decided outcome instead of acking.
		kind := kAbort
		if st.phase == 'c' {
			kind = kCommit
		}
		st.send(m.From, kind, 0)
		return
	}
	if st.r.cfg.Protocol == Quorum3PC {
		st.adoptQuorumState(m.Body)
		st.send(m.From, kTermAck, 0)
		return
	}
	switch {
	case m.Body == 'p' && st.phase == 'w':
		st.phase = 'p'
	case m.Body == 'w' && st.phase == 'p':
		// Retreat from the buffer state: no irreversible action has been
		// taken, so synchronizing backwards is safe.
		st.phase = 'w'
	}
	st.send(m.From, kTermAck, 0)
}

// onTermAckMsg collects phase-1 acknowledgements at the backup.
func (st *site) onTermAckMsg(m Msg) {
	if st.termAcks == nil || st.final() {
		return
	}
	st.termAcks[m.From] = true
	if st.r.cfg.Protocol == Quorum3PC {
		st.maybeQuorumPhase2()
		return
	}
	st.maybeTermPhase2()
}

// maybeTermPhase2 issues the decision once every operational target
// acknowledged phase 1.
func (st *site) maybeTermPhase2() {
	if st.termAcks == nil || st.final() {
		return
	}
	for _, id := range st.termTargets() {
		if !st.termAcks[id] {
			return
		}
	}
	st.termDecide()
}

// termDecide applies the decision rule for backup coordinators and
// broadcasts the outcome.
func (st *site) termDecide() {
	if st.phase == 'p' || st.phase == 'c' {
		st.decide('c')
		st.broadcast(st.termTargets(), kCommit, 0)
	} else {
		st.decide('a')
		st.broadcast(st.termTargets(), kAbort, 0)
	}
}
