package sim

// startCoordinator begins the central-site protocol at site 1: distribute
// the transaction, collect a response from every slave (property 4), then
// run the prepare round.
func (st *site) startCoordinator() {
	if st.crashed {
		return
	}
	st.responses = map[int]byte{}
	st.ownNo = st.r.cfg.VoteNo[st.id]
	st.phase = 'w'
	st.broadcast(st.r.others(st.id), kXact, 0)
}

// onMsg dispatches a delivered message at an operational site.
func (st *site) onMsg(m Msg) {
	if st.crashed {
		return
	}
	switch m.Kind {
	case kXact:
		st.onXact(m)
	case kYes, kNo:
		st.onVote(m)
	case kPrepare:
		st.onPrepare(m)
	case kAck:
		st.onAckMsg(m)
	case kCommit:
		st.decide('c')
	case kAbort:
		st.decide('a')
	case kNudge:
		st.onNudge()
	case kTermState:
		st.onTermState(m)
	case kTermAck:
		st.onTermAckMsg(m)
	case kQGather:
		st.onQGather(m)
	case kQState:
		st.onQState(m)
	case kQBlocked:
		st.blocked = true
	}
}

// onXact is the slave's vote.
func (st *site) onXact(m Msg) {
	if st.phase != 'q' {
		return
	}
	if st.r.cfg.VoteNo[st.id] {
		st.decide('a')
		st.send(m.From, kNo, 0)
		return
	}
	st.phase = 'w'
	st.send(m.From, kYes, 0)
}

// onVote collects the slaves' votes at the coordinator.
func (st *site) onVote(m Msg) {
	if st.responses == nil || st.final() {
		return
	}
	if m.Kind == kYes {
		st.responses[m.From] = 'y'
	} else {
		st.responses[m.From] = 'n'
	}
	st.maybeVoteRoundDone()
}

// maybeVoteRoundDone checks whether a response exists for every slave and
// advances the protocol. The coordinator may waive a crashed slave's
// missing vote as a NO (only the coordinator decides, so this is safe);
// under Quorum3PC it waives nothing and leaves the gap to quorum
// termination.
func (st *site) maybeVoteRoundDone() {
	if st.final() || st.phase == 'p' || st.responses == nil {
		return
	}
	anyNo := st.ownNo
	for _, id := range st.r.others(st.id) {
		v, ok := st.responses[id]
		if !ok {
			if st.r.net.Reachable(st.id, id) {
				return // still waiting
			}
			if st.r.cfg.Protocol == Quorum3PC {
				return // no waivers: quorum termination resolves the gap
			}
			// Crashed without a vote reaching the coordinator: it will
			// abort on recovery, so abort.
			anyNo = true
			continue
		}
		if v == 'n' {
			anyNo = true
		}
	}
	if anyNo {
		st.decide('a')
		st.broadcast(st.aliveOthers(), kAbort, 0)
		return
	}
	// Unanimous YES: enter the buffer state.
	st.phase = 'p'
	st.acks = map[int]bool{}
	st.broadcast(st.r.others(st.id), kPrepare, 0)
}

// onPrepare moves a slave into the buffer state.
func (st *site) onPrepare(m Msg) {
	if st.phase == 'w' {
		st.phase = 'p'
		st.send(m.From, kAck, 0)
	} else if st.phase == 'p' {
		st.send(m.From, kAck, 0)
	}
}

// onAckMsg collects prepare acknowledgements at the coordinator.
func (st *site) onAckMsg(m Msg) {
	if st.acks == nil || st.final() {
		return
	}
	st.acks[m.From] = true
	st.maybeAllAcks()
}

func (st *site) maybeAllAcks() {
	if st.phase != 'p' || st.acks == nil {
		return
	}
	for _, id := range st.r.others(st.id) {
		if st.acks[id] {
			continue
		}
		if st.r.cfg.Protocol == Quorum3PC {
			return // no waivers: quorum termination resolves the gap
		}
		if st.r.net.Reachable(st.id, id) {
			return
		}
	}
	st.decide('c')
	st.broadcast(st.aliveOthers(), kCommit, 0)
}

// onSuspect reacts to the report that another site failed (or was cut off
// by a partition — indistinguishable).
func (st *site) onSuspect(crashed int) {
	if st.final() || st.crashed {
		return
	}
	if st.r.cfg.Protocol == Quorum3PC {
		// Every site — coordinator included — abandons the normal path and
		// runs the quorum termination protocol within its group.
		st.startQuorumTermination()
		return
	}
	if st.id == 1 {
		// Coordinator: re-evaluate vote and ack collection.
		st.maybeVoteRoundDone()
		st.maybeAllAcks()
		return
	}
	// Slave: only a coordinator failure matters, unless a termination
	// attempt is underway and its backup died.
	if crashed == 1 || st.terminating {
		st.startTermination()
	}
}
