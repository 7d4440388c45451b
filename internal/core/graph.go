// Package core implements the analysis machinery of Skeen, "Nonblocking
// Commit Protocols" (SIGMOD 1981): reachable global state graphs,
// concurrency sets, committable states, the fundamental nonblocking theorem
// with its single-transition-synchrony lemma and k-resilience corollary, and
// the buffer-state synthesis method that turns blocking protocols into
// nonblocking ones (2PC into 3PC).
package core

import (
	"fmt"
	"sort"
	"strings"

	"nbcommit/internal/protocol"
)

// MsgBag is a multiset of outstanding network messages. The global state of
// a distributed transaction is a state vector of local states plus the
// outstanding messages in the network; MsgBag is the latter half.
type MsgBag map[protocol.Msg]int

// Clone returns a deep copy of the bag.
func (b MsgBag) Clone() MsgBag {
	out := make(MsgBag, len(b))
	for m, c := range b {
		out[m] = c
	}
	return out
}

// Add inserts count copies of m.
func (b MsgBag) Add(m protocol.Msg, count int) {
	if count == 0 {
		return
	}
	b[m] += count
	if b[m] == 0 {
		delete(b, m)
	}
}

// Count returns the multiplicity of m.
func (b MsgBag) Count(m protocol.Msg) int { return b[m] }

// size returns the total number of outstanding messages.
func (b MsgBag) size() int {
	n := 0
	for _, c := range b {
		n += c
	}
	return n
}

// key returns a canonical encoding of the bag, suitable for state
// deduplication.
func (b MsgBag) key() string {
	if len(b) == 0 {
		return ""
	}
	parts := make([]string, 0, len(b))
	for m, c := range b {
		parts = append(parts, fmt.Sprintf("%s*%d", m, c))
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// String renders the bag deterministically.
func (b MsgBag) String() string {
	k := b.key()
	if k == "" {
		return "{}"
	}
	return "{" + k + "}"
}

// Node is one reachable global state.
type Node struct {
	// Locals[i] is the local state of site i+1.
	Locals []protocol.StateID
	// Net holds the messages outstanding in the network.
	Net MsgBag
	// Succs are the global transitions leaving this state.
	Succs []Edge

	key string
}

// Edge is a global state transition: site Site takes local transition T,
// leading to the global state To.
type Edge struct {
	Site protocol.SiteID
	T    protocol.Transition
	// Consumed is the exact multiset of messages read by the transition
	// (resolving any wildcard patterns).
	Consumed []protocol.Msg
	To       *Node
}

// Key returns the canonical encoding of the global state.
func (n *Node) Key() string { return n.key }

// String renders the node as "<q,w,a> {yes[2->1]*1}".
func (n *Node) String() string {
	parts := make([]string, len(n.Locals))
	for i, s := range n.Locals {
		parts[i] = string(s)
	}
	return "<" + strings.Join(parts, ",") + "> " + n.Net.String()
}

// Terminal reports whether the state has no immediately reachable
// successors.
func (n *Node) Terminal() bool { return len(n.Succs) == 0 }

func nodeKey(locals []protocol.StateID, net MsgBag) string {
	parts := make([]string, len(locals))
	for i, s := range locals {
		parts[i] = string(s)
	}
	return strings.Join(parts, ",") + "|" + net.key()
}

// Graph is the reachable state graph of a transaction executed under a
// protocol: every global state reachable from the initial global state, in
// the absence of site failures (the paper constructs failure-free graphs;
// failure analysis works on concurrency sets instead).
type Graph struct {
	Protocol *protocol.Protocol
	Initial  *Node
	// Nodes maps canonical keys to reachable states.
	Nodes map[string]*Node
}

// BuildOptions bounds graph construction.
type BuildOptions struct {
	// MaxNodes aborts construction when the graph exceeds this many global
	// states (the reachable graph grows exponentially with the number of
	// sites). Zero means the default of 1_000_000.
	MaxNodes int
}

const defaultMaxNodes = 1_000_000

// Build constructs the reachable state graph for p by breadth-first
// exploration from the initial global state (all sites in their initial
// local state, the environment messages outstanding).
func Build(p *protocol.Protocol, opts BuildOptions) (*Graph, error) {
	if err := protocol.Validate(p); err != nil {
		return nil, err
	}
	max := opts.MaxNodes
	if max == 0 {
		max = defaultMaxNodes
	}

	locals := make([]protocol.StateID, p.N())
	for i, a := range p.Sites {
		locals[i] = a.Initial
	}
	net := MsgBag{}
	for _, m := range p.Initial {
		net.Add(m, 1)
	}
	init := &Node{Locals: locals, Net: net, key: nodeKey(locals, net)}
	g := &Graph{Protocol: p, Initial: init, Nodes: map[string]*Node{init.key: init}}

	queue := []*Node{init}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, a := range p.Sites {
			local := n.Locals[int(a.Site)-1]
			for _, t := range a.From(local) {
				for _, consumed := range matchReads(n.Net, a.Site, t.Reads) {
					succLocals := make([]protocol.StateID, len(n.Locals))
					copy(succLocals, n.Locals)
					succLocals[int(a.Site)-1] = t.To
					succNet := n.Net.Clone()
					for _, m := range consumed {
						succNet.Add(m, -1)
					}
					for _, m := range t.Sends {
						succNet.Add(m, 1)
					}
					k := nodeKey(succLocals, succNet)
					succ, ok := g.Nodes[k]
					if !ok {
						if len(g.Nodes) >= max {
							return nil, fmt.Errorf("core: reachable graph for %s exceeds %d states", p.Name, max)
						}
						succ = &Node{Locals: succLocals, Net: succNet, key: k}
						g.Nodes[k] = succ
						queue = append(queue, succ)
					}
					n.Succs = append(n.Succs, Edge{Site: a.Site, T: t, Consumed: consumed, To: succ})
				}
			}
		}
	}
	return g, nil
}

// matchReads enumerates the distinct message multisets in net that satisfy
// the read patterns for a transition at site self. Concrete patterns demand
// a specific (name, from, to=self) message; wildcard patterns (AnySite)
// match any sender. Each returned slice is one way to fire the transition;
// duplicates (same consumed multiset) are suppressed.
func matchReads(net MsgBag, self protocol.SiteID, reads []protocol.Pattern) [][]protocol.Msg {
	var results [][]protocol.Msg
	seen := map[string]bool{}

	var rec func(i int, remaining MsgBag, acc []protocol.Msg)
	rec = func(i int, remaining MsgBag, acc []protocol.Msg) {
		if i == len(reads) {
			consumed := make([]protocol.Msg, len(acc))
			copy(consumed, acc)
			sort.Slice(consumed, func(a, b int) bool {
				if consumed[a].Name != consumed[b].Name {
					return consumed[a].Name < consumed[b].Name
				}
				return consumed[a].From < consumed[b].From
			})
			k := fmt.Sprint(consumed)
			if !seen[k] {
				seen[k] = true
				results = append(results, consumed)
			}
			return
		}
		pat := reads[i]
		if pat.From != protocol.AnySite {
			m := protocol.Msg{Name: pat.Name, From: pat.From, To: self}
			if remaining.Count(m) > 0 {
				remaining.Add(m, -1)
				rec(i+1, remaining, append(acc, m))
				remaining.Add(m, 1)
			}
			return
		}
		// Wildcard: try each distinct available sender.
		senders := make([]protocol.SiteID, 0, 4)
		for m, c := range remaining {
			if c > 0 && m.Name == pat.Name && m.To == self {
				senders = append(senders, m.From)
			}
		}
		sort.Slice(senders, func(a, b int) bool { return senders[a] < senders[b] })
		for _, from := range senders {
			m := protocol.Msg{Name: pat.Name, From: from, To: self}
			remaining.Add(m, -1)
			rec(i+1, remaining, append(acc, m))
			remaining.Add(m, 1)
		}
	}
	rec(0, net.Clone(), nil)
	return results
}

// Final reports whether every local state in the vector is a final state.
func (g *Graph) Final(n *Node) bool {
	for i, a := range g.Protocol.Sites {
		k, err := a.Kind(n.Locals[i])
		if err != nil || !k.Final() {
			return false
		}
	}
	return true
}

// Inconsistent reports whether the global state contains both a local commit
// state and a local abort state — the mixed decision that violates
// transaction atomicity.
func (g *Graph) Inconsistent(n *Node) bool {
	hasCommit, hasAbort := false, false
	for i, a := range g.Protocol.Sites {
		k, err := a.Kind(n.Locals[i])
		if err != nil {
			return false
		}
		switch k {
		case protocol.KindCommit:
			hasCommit = true
		case protocol.KindAbort:
			hasAbort = true
		}
	}
	return hasCommit && hasAbort
}

// Deadlocked reports whether the state is terminal but not final: the
// protocol can make no further move yet some site is not in a final state.
func (g *Graph) Deadlocked(n *Node) bool {
	return n.Terminal() && !g.Final(n)
}

// Stats summarizes a reachable state graph.
type Stats struct {
	States       int // reachable global states
	FinalStates  int // all-final state vectors
	Terminal     int // states with no successor
	Deadlocked   int // terminal but not final
	Inconsistent int // states mixing commit and abort locally
	Edges        int // global transitions
	CommitFinal  int // final states in which the sites committed
	AbortFinal   int // final states in which the sites aborted
}

// Stats computes summary statistics of the graph.
func (g *Graph) Stats() Stats {
	var s Stats
	for _, n := range g.Nodes {
		s.States++
		s.Edges += len(n.Succs)
		final := g.Final(n)
		if final {
			s.FinalStates++
			committed := false
			for i, a := range g.Protocol.Sites {
				if k, _ := a.Kind(n.Locals[i]); k == protocol.KindCommit {
					committed = true
					break
				}
			}
			if committed {
				s.CommitFinal++
			} else {
				s.AbortFinal++
			}
		}
		if n.Terminal() {
			s.Terminal++
			if !final {
				s.Deadlocked++
			}
		}
		if g.Inconsistent(n) {
			s.Inconsistent++
		}
	}
	return s
}

// SortedNodes returns the graph's nodes ordered by key, for deterministic
// iteration in reports and tests.
func (g *Graph) SortedNodes() []*Node {
	out := make([]*Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}
