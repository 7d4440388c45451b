// Package protocol defines the finite-state-automaton (FSA) model of
// distributed commit protocols from Skeen, "Nonblocking Commit Protocols"
// (SIGMOD 1981).
//
// Transaction execution at each site is modelled as a nondeterministic FSA
// whose transitions read a nonempty multiset of messages addressed to the
// site, write a multiset of messages, and move to the next local state. The
// network serves as a common input/output tape for all sites. Final states
// are partitioned into commit states and abort states; state diagrams are
// acyclic.
//
// A Protocol is a collection of per-site automata plus the messages that are
// outstanding initially (the transaction request arriving from the
// environment). Builders in this package construct the protocols studied in
// the paper: one-phase commit, the central-site and decentralized two-phase
// commit protocols, their nonblocking three-phase extensions, and the
// canonical single-site skeletons used in the paper's lemma.
package protocol

import (
	"fmt"
	"sort"
	"strings"
)

// SiteID identifies a participating site. Sites are numbered 1..N as in the
// paper; site 1 is the coordinator in central-site protocols.
type SiteID int

// Env is the pseudo-site used as the sender of messages that arrive from the
// environment, such as the initial transaction request ("xact" messages have
// sender x in the paper's notation).
const Env SiteID = 0

// AnySite is a wildcard sender in a read pattern: the transition fires on a
// matching message from any site.
const AnySite SiteID = -1

// StateKind classifies a local state. Final states are partitioned into
// commit and abort states (slide "Properties of the FSAs"); committing and
// aborting are irreversible.
type StateKind int

const (
	// KindInitial marks the automaton's start state (q).
	KindInitial StateKind = iota
	// KindIntermediate marks a non-final, non-initial state (w, p).
	KindIntermediate
	// KindCommit marks a final commit state (c).
	KindCommit
	// KindAbort marks a final abort state (a).
	KindAbort
)

// String returns a short human-readable name for the kind.
func (k StateKind) String() string {
	switch k {
	case KindInitial:
		return "initial"
	case KindIntermediate:
		return "intermediate"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	default:
		return fmt.Sprintf("StateKind(%d)", int(k))
	}
}

// Final reports whether the kind is a final (commit or abort) state.
func (k StateKind) Final() bool { return k == KindCommit || k == KindAbort }

// StateID names a local state within one site's automaton, e.g. "q", "w",
// "p", "a", "c". IDs need only be unique within a single automaton.
type StateID string

// Vote records whether taking a transition constitutes the site's vote on
// committing the transaction. Votes are used to derive committable states: a
// local state is committable iff its occupancy by any site implies that all
// sites have voted yes.
type Vote int

const (
	// VoteNone marks a transition that carries no vote.
	VoteNone Vote = iota
	// VoteYes marks a transition by which the site votes to commit.
	VoteYes
	// VoteNo marks a transition by which the site votes to abort
	// (unilateral abort).
	VoteNo
)

// String returns "yes", "no" or "".
func (v Vote) String() string {
	switch v {
	case VoteYes:
		return "yes"
	case VoteNo:
		return "no"
	default:
		return ""
	}
}

// Msg is a concrete protocol message: a named payload from one site to
// another. The paper writes messages with two subscripts, sender then
// receiver (e.g. yes_{i1}); Msg{Name: "yes", From: i, To: 1} is the same
// thing.
type Msg struct {
	Name string
	From SiteID
	To   SiteID
}

// String formats the message in the paper's subscript style, e.g.
// "yes[2->1]". Environment messages print as "xact[env->2]".
func (m Msg) String() string {
	from := fmt.Sprintf("%d", int(m.From))
	if m.From == Env {
		from = "env"
	}
	return fmt.Sprintf("%s[%s->%d]", m.Name, from, int(m.To))
}

// Pattern matches messages addressed to the transitioning site. From may be
// AnySite to match a sender-independent message (e.g. "abort on the first NO
// vote received, whoever sent it").
type Pattern struct {
	Name string
	From SiteID
}

// String formats the pattern, using "*" for a wildcard sender.
func (p Pattern) String() string {
	if p.From == AnySite {
		return p.Name + "[*]"
	}
	if p.From == Env {
		return p.Name + "[env]"
	}
	return fmt.Sprintf("%s[%d]", p.Name, int(p.From))
}

// Transition is one edge of a site's automaton. In the absence of failures a
// transition is atomic: it consumes every message matched by Reads (all
// addressed to this site), emits every message in Sends, and moves the site
// from From to To.
type Transition struct {
	From  StateID
	To    StateID
	Reads []Pattern // multiset of patterns, all must be satisfiable at once
	Sends []Msg     // messages written to the network
	Vote  Vote      // whether this transition casts the site's vote
}

// String renders the transition as "w --yes[2],yes[3]/commit[1->2]--> c".
func (t Transition) String() string {
	reads := make([]string, len(t.Reads))
	for i, r := range t.Reads {
		reads[i] = r.String()
	}
	sends := make([]string, len(t.Sends))
	for i, s := range t.Sends {
		sends[i] = s.String()
	}
	return fmt.Sprintf("%s --%s / %s--> %s",
		t.From, strings.Join(reads, ","), strings.Join(sends, ","), t.To)
}

// Automaton is the FSA executed by a single site.
type Automaton struct {
	Site        SiteID
	Name        string // role label: "coordinator", "slave", "peer"
	Initial     StateID
	States      map[StateID]StateKind
	Transitions []Transition
}

// Kind returns the kind of a state, or an error if the state is unknown.
func (a *Automaton) Kind(s StateID) (StateKind, error) {
	k, ok := a.States[s]
	if !ok {
		return 0, fmt.Errorf("protocol: automaton for site %d has no state %q", a.Site, s)
	}
	return k, nil
}

// From returns the transitions leaving state s.
func (a *Automaton) From(s StateID) []Transition {
	var out []Transition
	for _, t := range a.Transitions {
		if t.From == s {
			out = append(out, t)
		}
	}
	return out
}

// StateIDs returns the automaton's states in deterministic order: initial
// first, then intermediates, then final states, alphabetically within each
// group.
func (a *Automaton) StateIDs() []StateID {
	ids := make([]StateID, 0, len(a.States))
	for id := range a.States {
		ids = append(ids, id)
	}
	rank := func(id StateID) int {
		switch a.States[id] {
		case KindInitial:
			return 0
		case KindIntermediate:
			return 1
		case KindAbort:
			return 2
		default:
			return 3
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		ri, rj := rank(ids[i]), rank(ids[j])
		if ri != rj {
			return ri < rj
		}
		return ids[i] < ids[j]
	})
	return ids
}

// adjacent returns the set of states reachable from s by exactly one
// transition (the successors of s). Used by the paper's lemma for protocols
// synchronous within one state transition.
func (a *Automaton) adjacent(s StateID) []StateID {
	seen := map[StateID]bool{}
	var out []StateID
	for _, t := range a.Transitions {
		if t.From == s && !seen[t.To] {
			seen[t.To] = true
			out = append(out, t.To)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Protocol is a complete distributed commit protocol: one automaton per
// participating site plus the environment messages present in the network
// before any site moves (the transaction request).
type Protocol struct {
	Name    string
	Sites   []*Automaton // indexed 0..n-1, automaton i has Site == i+1
	Initial []Msg        // environment messages outstanding at the start
}

// N returns the number of participating sites.
func (p *Protocol) N() int { return len(p.Sites) }

// Site returns the automaton for the given site ID.
func (p *Protocol) Site(id SiteID) (*Automaton, error) {
	idx := int(id) - 1
	if idx < 0 || idx >= len(p.Sites) {
		return nil, fmt.Errorf("protocol: %s has no site %d", p.Name, int(id))
	}
	return p.Sites[idx], nil
}

// String summarizes the protocol.
func (p *Protocol) String() string {
	return fmt.Sprintf("%s (%d sites)", p.Name, p.N())
}
