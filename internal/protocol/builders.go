package protocol

import "fmt"

// Message names used by the protocols in the paper.
const (
	MsgRequest = "request" // client request delivered to the coordinator
	MsgXact    = "xact"    // transaction distributed to a site
	MsgYes     = "yes"     // vote to commit
	MsgNo      = "no"      // vote to abort (unilateral abort)
	MsgPrepare = "prepare" // enter the buffer state (prepare to commit)
	MsgAck     = "ack"     // acknowledge the prepare
	MsgCommit  = "commit"  // final commit decision
	MsgAbort   = "abort"   // final abort decision
)

// Canonical state names (slides 32, 34, 40).
const (
	StateQ StateID = "q" // initial
	StateW StateID = "w" // wait (voted, awaiting outcome)
	StateP StateID = "p" // prepared to commit (the buffer state)
	StateA StateID = "a" // abort (final)
	StateC StateID = "c" // commit (final)
)

func mustSites(n int) {
	if n < 2 {
		panic(fmt.Sprintf("protocol: need at least 2 sites, got %d", n))
	}
}

// othersOf returns every site ID except self, in ascending order.
func othersOf(n int, self SiteID) []SiteID {
	out := make([]SiteID, 0, n-1)
	for i := 1; i <= n; i++ {
		if SiteID(i) != self {
			out = append(out, SiteID(i))
		}
	}
	return out
}

// sendAll builds one message per destination.
func sendAll(name string, from SiteID, to []SiteID) []Msg {
	out := make([]Msg, len(to))
	for i, d := range to {
		out[i] = Msg{Name: name, From: from, To: d}
	}
	return out
}

// readAll builds one pattern per sender.
func readAll(name string, from []SiteID) []Pattern {
	out := make([]Pattern, len(from))
	for i, f := range from {
		out[i] = Pattern{Name: name, From: f}
	}
	return out
}

// allOf returns site IDs 1..n.
func allOf(n int) []SiteID {
	out := make([]SiteID, n)
	for i := range out {
		out[i] = SiteID(i + 1)
	}
	return out
}

// maxVoteCollectors bounds the protocols built with explicit full-round vote
// collection: the abort alternatives enumerate the nonempty subsets of NO
// voters, which is exponential in the number of voters. The FSA builders are
// meant for state-graph analysis at small n; the runtime engine and
// simulator handle large site counts without FSAs.
const maxVoteCollectors = 16

// abortRounds enumerates, for a site collecting one vote from each sender,
// every read multiset that contains at least one NO: for each nonempty
// subset S of senders, a NO from every member of S and a YES from the rest.
// Per the central-site model's property 4 (and the decentralized model's
// rounds), a site waits for a response from every peer before moving, which
// is what keeps the protocols synchronous within one state transition.
func abortRounds(senders []SiteID) [][]Pattern {
	if len(senders) > maxVoteCollectors {
		panic(fmt.Sprintf("protocol: vote collection over %d senders would enumerate 2^%d abort rounds",
			len(senders), len(senders)))
	}
	var out [][]Pattern
	for mask := 1; mask < 1<<len(senders); mask++ {
		reads := make([]Pattern, len(senders))
		for i, s := range senders {
			name := MsgYes
			if mask&(1<<i) != 0 {
				name = MsgNo
			}
			reads[i] = Pattern{Name: name, From: s}
		}
		out = append(out, reads)
	}
	return out
}

// OnePC builds the one-phase commit protocol for n sites (slide 8). The
// coordinator (site 1) receives the client's decision and relays it; slaves
// obey unconditionally. 1PC is inadequate because it does not allow a
// unilateral abort by a server; see Validate's unilateral-abort check.
func OnePC(n int) *Protocol {
	mustSites(n)
	coord := &Automaton{
		Site: 1, Name: "coordinator", Initial: StateQ,
		States: map[StateID]StateKind{
			StateQ: KindInitial, StateA: KindAbort, StateC: KindCommit,
		},
		Transitions: []Transition{
			{From: StateQ, To: StateC,
				Reads: []Pattern{{Name: MsgCommit, From: Env}},
				Sends: sendAll(MsgCommit, 1, othersOf(n, 1))},
			{From: StateQ, To: StateA,
				Reads: []Pattern{{Name: MsgAbort, From: Env}},
				Sends: sendAll(MsgAbort, 1, othersOf(n, 1))},
		},
	}
	sites := []*Automaton{coord}
	for i := 2; i <= n; i++ {
		id := SiteID(i)
		sites = append(sites, &Automaton{
			Site: id, Name: "slave", Initial: StateQ,
			States: map[StateID]StateKind{
				StateQ: KindInitial, StateA: KindAbort, StateC: KindCommit,
			},
			Transitions: []Transition{
				{From: StateQ, To: StateC, Reads: []Pattern{{Name: MsgCommit, From: 1}}},
				{From: StateQ, To: StateA, Reads: []Pattern{{Name: MsgAbort, From: 1}}},
			},
		})
	}
	return &Protocol{
		Name:  fmt.Sprintf("central-site 1PC (n=%d)", n),
		Sites: sites,
		// The environment nondeterministically requests commit or abort;
		// both messages are offered, the coordinator consumes one.
		Initial: []Msg{
			{Name: MsgCommit, From: Env, To: 1},
			{Name: MsgAbort, From: Env, To: 1},
		},
	}
}

// CentralTwoPC builds the central-site two-phase commit protocol for n sites
// (slide 15). Site 1 is the coordinator; sites 2..n execute the slave
// protocol. The coordinator's own vote appears as nondeterminism in state w1
// (the parenthesized (yes1)/(no1) of the slide).
func CentralTwoPC(n int) *Protocol {
	mustSites(n)
	others := othersOf(n, 1)
	coordTransitions := []Transition{
		{From: StateQ, To: StateW,
			Reads: []Pattern{{Name: MsgRequest, From: Env}},
			Sends: sendAll(MsgXact, 1, others)},
		// All slaves voted yes and the coordinator votes yes: commit.
		{From: StateW, To: StateC, Vote: VoteYes,
			Reads: readAll(MsgYes, others),
			Sends: sendAll(MsgCommit, 1, others)},
		// All slaves voted yes but the coordinator votes no: abort.
		{From: StateW, To: StateA, Vote: VoteNo,
			Reads: readAll(MsgYes, others),
			Sends: sendAll(MsgAbort, 1, others)},
	}
	// Some slave voted no: the coordinator still collects every response
	// (property 4 of the central-site model) and then aborts.
	for _, reads := range abortRounds(others) {
		coordTransitions = append(coordTransitions, Transition{
			From: StateW, To: StateA, Reads: reads,
			Sends: sendAll(MsgAbort, 1, others),
		})
	}
	coord := &Automaton{
		Site: 1, Name: "coordinator", Initial: StateQ,
		States: map[StateID]StateKind{
			StateQ: KindInitial, StateW: KindIntermediate,
			StateA: KindAbort, StateC: KindCommit,
		},
		Transitions: coordTransitions,
	}
	sites := []*Automaton{coord}
	for i := 2; i <= n; i++ {
		id := SiteID(i)
		sites = append(sites, &Automaton{
			Site: id, Name: "slave", Initial: StateQ,
			States: map[StateID]StateKind{
				StateQ: KindInitial, StateW: KindIntermediate,
				StateA: KindAbort, StateC: KindCommit,
			},
			Transitions: []Transition{
				{From: StateQ, To: StateW, Vote: VoteYes,
					Reads: []Pattern{{Name: MsgXact, From: 1}},
					Sends: []Msg{{Name: MsgYes, From: id, To: 1}}},
				{From: StateQ, To: StateA, Vote: VoteNo,
					Reads: []Pattern{{Name: MsgXact, From: 1}},
					Sends: []Msg{{Name: MsgNo, From: id, To: 1}}},
				{From: StateW, To: StateC, Reads: []Pattern{{Name: MsgCommit, From: 1}}},
				{From: StateW, To: StateA, Reads: []Pattern{{Name: MsgAbort, From: 1}}},
			},
		})
	}
	return &Protocol{
		Name:    fmt.Sprintf("central-site 2PC (n=%d)", n),
		Sites:   sites,
		Initial: []Msg{{Name: MsgRequest, From: Env, To: 1}},
	}
}

// DecentralizedTwoPC builds the fully decentralized two-phase commit protocol
// for n sites (slide 26). All sites run the same protocol and exchange votes
// in a full round; as in the paper, each site also sends its messages to
// itself as part of a message interchange.
func DecentralizedTwoPC(n int) *Protocol {
	mustSites(n)
	all := allOf(n)
	sites := make([]*Automaton, 0, n)
	for i := 1; i <= n; i++ {
		id := SiteID(i)
		trans := []Transition{
			{From: StateQ, To: StateW, Vote: VoteYes,
				Reads: []Pattern{{Name: MsgXact, From: Env}},
				Sends: sendAll(MsgYes, id, all)},
			{From: StateQ, To: StateA, Vote: VoteNo,
				Reads: []Pattern{{Name: MsgXact, From: Env}},
				Sends: sendAll(MsgNo, id, all)},
			{From: StateW, To: StateC, Reads: readAll(MsgYes, all)},
		}
		// In state w the site has already sent itself a yes; it collects a
		// full round of votes and aborts if any other site voted no.
		for _, reads := range abortRounds(othersOf(n, id)) {
			trans = append(trans, Transition{
				From: StateW, To: StateA,
				Reads: append([]Pattern{{Name: MsgYes, From: id}}, reads...),
			})
		}
		sites = append(sites, &Automaton{
			Site: id, Name: "peer", Initial: StateQ,
			States: map[StateID]StateKind{
				StateQ: KindInitial, StateW: KindIntermediate,
				StateA: KindAbort, StateC: KindCommit,
			},
			Transitions: trans,
		})
	}
	return &Protocol{
		Name:    fmt.Sprintf("decentralized 2PC (n=%d)", n),
		Sites:   sites,
		Initial: sendAll(MsgXact, Env, all),
	}
}

// CentralThreePC builds the nonblocking central-site three-phase commit
// protocol for n sites (slide 35). It is the central-site 2PC with the
// buffer state p ("prepare to commit") inserted between w and c at every
// site, plus the prepare/ack message round that realizes the extra phase.
func CentralThreePC(n int) *Protocol {
	mustSites(n)
	others := othersOf(n, 1)
	coordTransitions := []Transition{
		{From: StateQ, To: StateW,
			Reads: []Pattern{{Name: MsgRequest, From: Env}},
			Sends: sendAll(MsgXact, 1, others)},
		{From: StateW, To: StateP, Vote: VoteYes,
			Reads: readAll(MsgYes, others),
			Sends: sendAll(MsgPrepare, 1, others)},
		{From: StateW, To: StateA, Vote: VoteNo,
			Reads: readAll(MsgYes, others),
			Sends: sendAll(MsgAbort, 1, others)},
		{From: StateP, To: StateC,
			Reads: readAll(MsgAck, others),
			Sends: sendAll(MsgCommit, 1, others)},
	}
	for _, reads := range abortRounds(others) {
		coordTransitions = append(coordTransitions, Transition{
			From: StateW, To: StateA, Reads: reads,
			Sends: sendAll(MsgAbort, 1, others),
		})
	}
	coord := &Automaton{
		Site: 1, Name: "coordinator", Initial: StateQ,
		States: map[StateID]StateKind{
			StateQ: KindInitial, StateW: KindIntermediate, StateP: KindIntermediate,
			StateA: KindAbort, StateC: KindCommit,
		},
		Transitions: coordTransitions,
	}
	sites := []*Automaton{coord}
	for i := 2; i <= n; i++ {
		id := SiteID(i)
		sites = append(sites, &Automaton{
			Site: id, Name: "slave", Initial: StateQ,
			States: map[StateID]StateKind{
				StateQ: KindInitial, StateW: KindIntermediate, StateP: KindIntermediate,
				StateA: KindAbort, StateC: KindCommit,
			},
			Transitions: []Transition{
				{From: StateQ, To: StateW, Vote: VoteYes,
					Reads: []Pattern{{Name: MsgXact, From: 1}},
					Sends: []Msg{{Name: MsgYes, From: id, To: 1}}},
				{From: StateQ, To: StateA, Vote: VoteNo,
					Reads: []Pattern{{Name: MsgXact, From: 1}},
					Sends: []Msg{{Name: MsgNo, From: id, To: 1}}},
				{From: StateW, To: StateP,
					Reads: []Pattern{{Name: MsgPrepare, From: 1}},
					Sends: []Msg{{Name: MsgAck, From: id, To: 1}}},
				{From: StateW, To: StateA, Reads: []Pattern{{Name: MsgAbort, From: 1}}},
				{From: StateP, To: StateC, Reads: []Pattern{{Name: MsgCommit, From: 1}}},
			},
		})
	}
	return &Protocol{
		Name:    fmt.Sprintf("central-site 3PC (n=%d)", n),
		Sites:   sites,
		Initial: []Msg{{Name: MsgRequest, From: Env, To: 1}},
	}
}

// DecentralizedThreePC builds the nonblocking decentralized three-phase
// commit protocol for n sites (slide 36): a vote round, a prepare round, and
// final commitment.
func DecentralizedThreePC(n int) *Protocol {
	mustSites(n)
	all := allOf(n)
	sites := make([]*Automaton, 0, n)
	for i := 1; i <= n; i++ {
		id := SiteID(i)
		trans := []Transition{
			{From: StateQ, To: StateW, Vote: VoteYes,
				Reads: []Pattern{{Name: MsgXact, From: Env}},
				Sends: sendAll(MsgYes, id, all)},
			{From: StateQ, To: StateA, Vote: VoteNo,
				Reads: []Pattern{{Name: MsgXact, From: Env}},
				Sends: sendAll(MsgNo, id, all)},
			{From: StateW, To: StateP,
				Reads: readAll(MsgYes, all),
				Sends: sendAll(MsgPrepare, id, all)},
			{From: StateP, To: StateC, Reads: readAll(MsgPrepare, all)},
		}
		for _, reads := range abortRounds(othersOf(n, id)) {
			trans = append(trans, Transition{
				From: StateW, To: StateA,
				Reads: append([]Pattern{{Name: MsgYes, From: id}}, reads...),
			})
		}
		sites = append(sites, &Automaton{
			Site: id, Name: "peer", Initial: StateQ,
			States: map[StateID]StateKind{
				StateQ: KindInitial, StateW: KindIntermediate, StateP: KindIntermediate,
				StateA: KindAbort, StateC: KindCommit,
			},
			Transitions: trans,
		})
	}
	return &Protocol{
		Name:    fmt.Sprintf("decentralized 3PC (n=%d)", n),
		Sites:   sites,
		Initial: sendAll(MsgXact, Env, all),
	}
}

// CanonicalTwoPC returns the canonical 2PC skeleton (slide 32): the
// message-free state diagram q -> w -> {a, c} with a unilateral abort edge
// q -> a, common to both 2PC paradigms (their "structural equivalence").
// The skeleton is returned as a single automaton; instantiate it across n
// sites with Canonicalize.
func CanonicalTwoPC() *Automaton {
	return &Automaton{
		Site: 1, Name: "canonical-2pc", Initial: StateQ,
		States: map[StateID]StateKind{
			StateQ: KindInitial, StateW: KindIntermediate,
			StateA: KindAbort, StateC: KindCommit,
		},
		Transitions: []Transition{
			{From: StateQ, To: StateW, Vote: VoteYes},
			{From: StateQ, To: StateA, Vote: VoteNo},
			{From: StateW, To: StateC},
			{From: StateW, To: StateA},
		},
	}
}

// CanonicalThreePC returns the canonical 3PC skeleton (slide 34): canonical
// 2PC with the buffer state p ("prepare to commit") inserted between w and c.
func CanonicalThreePC() *Automaton {
	return &Automaton{
		Site: 1, Name: "canonical-3pc", Initial: StateQ,
		States: map[StateID]StateKind{
			StateQ: KindInitial, StateW: KindIntermediate, StateP: KindIntermediate,
			StateA: KindAbort, StateC: KindCommit,
		},
		Transitions: []Transition{
			{From: StateQ, To: StateW, Vote: VoteYes},
			{From: StateQ, To: StateA, Vote: VoteNo},
			{From: StateW, To: StateP},
			{From: StateW, To: StateA},
			{From: StateP, To: StateC},
		},
	}
}
