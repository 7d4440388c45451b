package core

import (
	"strings"
	"testing"

	"nbcommit/internal/protocol"
)

func build(t testing.TB, p *protocol.Protocol) *Graph {
	t.Helper()
	g, err := Build(p, BuildOptions{})
	if err != nil {
		t.Fatalf("Build(%s): %v", p.Name, err)
	}
	return g
}

func namesEqual(got []protocol.StateID, want ...protocol.StateID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestNoInconsistentStates verifies the atomicity property on which the
// whole paper rests: no protocol ever reaches a global state containing both
// a local commit and a local abort state.
func TestNoInconsistentStates(t *testing.T) {
	for _, p := range []*protocol.Protocol{
		protocol.OnePC(3),
		protocol.CentralTwoPC(3), protocol.DecentralizedTwoPC(3),
		protocol.CentralThreePC(3), protocol.DecentralizedThreePC(3),
		protocol.CentralTwoPC(4), protocol.CentralThreePC(4),
	} {
		g := build(t, p)
		if s := g.Stats(); s.Inconsistent != 0 {
			t.Errorf("%s: %d inconsistent global states", p.Name, s.Inconsistent)
		}
	}
}

// TestNoDeadlocks verifies that every reachable terminal state is final: the
// failure-free protocols always run to completion.
func TestNoDeadlocks(t *testing.T) {
	for _, p := range []*protocol.Protocol{
		protocol.CentralTwoPC(3), protocol.DecentralizedTwoPC(3),
		protocol.CentralThreePC(3), protocol.DecentralizedThreePC(3),
	} {
		g := build(t, p)
		if s := g.Stats(); s.Deadlocked != 0 {
			t.Errorf("%s: %d deadlocked states", p.Name, s.Deadlocked)
		}
	}
}

// TestReachableGraphTwoSite2PC reproduces figure "Reachable state graph for
// the 2-site 2PC protocol" (slide 18): the graph exists, has both commit and
// abort outcomes, and no mixed ones.
func TestReachableGraphTwoSite2PC(t *testing.T) {
	g := build(t, protocol.CentralTwoPC(2))
	s := g.Stats()
	if s.States == 0 || s.Edges == 0 {
		t.Fatalf("empty graph: %+v", s)
	}
	if s.CommitFinal == 0 {
		t.Error("no committed final state reachable")
	}
	if s.AbortFinal == 0 {
		t.Error("no aborted final state reachable")
	}
	if s.Inconsistent != 0 || s.Deadlocked != 0 {
		t.Errorf("graph unsound: %+v", s)
	}
	// The initial state is <q,q> with just the environment request.
	if g.Initial.Locals[0] != protocol.StateQ || g.Initial.Locals[1] != protocol.StateQ {
		t.Errorf("initial locals = %v", g.Initial.Locals)
	}
	if g.Initial.Net.size() != 1 {
		t.Errorf("initial network = %v", g.Initial.Net)
	}
}

// TestConcurrencySetsCanonical2PC reproduces slide 32 exactly:
// CS(q)={q,w,a}, CS(w)={q,w,a,c}, CS(a)={q,w,a}, CS(c)={w,c},
// computed from the reachable graph of the decentralized 2PC (whose sites
// all run the canonical skeleton).
func TestConcurrencySetsCanonical2PC(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		g := build(t, protocol.DecentralizedTwoPC(n))
		a := Analyze(g)
		cases := []struct {
			s    protocol.StateID
			want []protocol.StateID
		}{
			{protocol.StateQ, []protocol.StateID{"a", "q", "w"}},
			{protocol.StateW, []protocol.StateID{"a", "c", "q", "w"}},
			{protocol.StateA, []protocol.StateID{"a", "q", "w"}},
			{protocol.StateC, []protocol.StateID{"c", "w"}},
		}
		for _, c := range cases {
			cs, err := a.Set(1, c.s)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if !namesEqual(cs.Names(), c.want...) {
				t.Errorf("n=%d: CS(%s) = %v, want %v", n, c.s, cs.Names(), c.want)
			}
		}
	}
}

// TestConcurrencySetsCanonical3PC checks the 3PC concurrency sets implied by
// slide 40's termination rule: commit states appear only in CS(p) and CS(c).
func TestConcurrencySetsCanonical3PC(t *testing.T) {
	g := build(t, protocol.DecentralizedThreePC(3))
	a := Analyze(g)
	cases := []struct {
		s    protocol.StateID
		want []protocol.StateID
	}{
		{protocol.StateQ, []protocol.StateID{"a", "q", "w"}},
		{protocol.StateW, []protocol.StateID{"a", "p", "q", "w"}},
		{protocol.StateP, []protocol.StateID{"c", "p", "w"}},
		{protocol.StateA, []protocol.StateID{"a", "q", "w"}},
		{protocol.StateC, []protocol.StateID{"c", "p"}},
	}
	for _, c := range cases {
		cs, err := a.Set(2, c.s)
		if err != nil {
			t.Fatal(err)
		}
		if !namesEqual(cs.Names(), c.want...) {
			t.Errorf("CS(%s) = %v, want %v", c.s, cs.Names(), c.want)
		}
	}
}

// TestCommittableStates verifies that blocking protocols have exactly one
// committable state while nonblocking protocols have more than one (slide
// "Committable States").
func TestCommittableStates(t *testing.T) {
	g := build(t, protocol.DecentralizedTwoPC(3))
	a := Analyze(g)
	if got := a.CommittableStates(1); !namesEqual(got, protocol.StateC) {
		t.Errorf("2PC committable = %v, want [c]", got)
	}

	g = build(t, protocol.DecentralizedThreePC(3))
	a = Analyze(g)
	if got := a.CommittableStates(1); !namesEqual(got, protocol.StateC, protocol.StateP) {
		t.Errorf("3PC committable = %v, want [c p]", got)
	}

	// Central-site: the coordinator's p and c are committable too.
	g = build(t, protocol.CentralThreePC(3))
	a = Analyze(g)
	if got := a.CommittableStates(1); !namesEqual(got, protocol.StateC, protocol.StateP) {
		t.Errorf("central 3PC coordinator committable = %v, want [c p]", got)
	}
	if got := a.CommittableStates(2); !namesEqual(got, protocol.StateC, protocol.StateP) {
		t.Errorf("central 3PC slave committable = %v, want [c p]", got)
	}
}

// TestTheoremOn2PC verifies that both 2PC paradigms block (slides 28/33):
// state w is noncommittable and its concurrency set contains a commit state.
func TestTheoremOn2PC(t *testing.T) {
	for _, p := range []*protocol.Protocol{
		protocol.CentralTwoPC(3), protocol.DecentralizedTwoPC(3),
	} {
		r := CheckTheorem(build(t, p))
		if r.Nonblocking() {
			t.Errorf("%s reported nonblocking", p.Name)
			continue
		}
		// Every violation must be at state w, and both violation kinds must
		// appear there.
		kinds := map[ViolationKind]bool{}
		for _, v := range r.Violations {
			if v.State.State != protocol.StateW {
				t.Errorf("%s: unexpected violation at %s", p.Name, v.State)
			}
			kinds[v.Kind] = true
		}
		if !kinds[MixedConcurrency] || !kinds[NoncommittableSeesCommit] {
			t.Errorf("%s: 2PC can block for either reason; got kinds %v", p.Name, kinds)
		}
		if !strings.Contains(r.String(), "BLOCKING") {
			t.Errorf("%s: report = %q", p.Name, r.String())
		}
	}
}

// TestTheoremOn3PC verifies the headline result: both 3PC protocols satisfy
// the fundamental nonblocking theorem at every site.
func TestTheoremOn3PC(t *testing.T) {
	for _, p := range []*protocol.Protocol{
		protocol.CentralThreePC(2), protocol.CentralThreePC(3), protocol.CentralThreePC(4),
		protocol.DecentralizedThreePC(2), protocol.DecentralizedThreePC(3),
	} {
		r := CheckTheorem(build(t, p))
		if !r.Nonblocking() {
			t.Errorf("%s:\n%s", p.Name, r.String())
		}
		if !strings.Contains(r.String(), "NONBLOCKING") {
			t.Errorf("%s: report = %q", p.Name, r.String())
		}
	}
}

// TestResilienceCorollary: for 3PC all sites obey the theorem, so the
// protocol is nonblocking as long as any one site survives; for 2PC no site
// does.
func TestResilienceCorollary(t *testing.T) {
	if good := CheckResilience(build(t, protocol.CentralThreePC(4))); len(good) != 4 {
		t.Errorf("3PC resilient sites = %v, want all 4", good)
	}
	// In central-site 2PC only the coordinator obeys the theorem — 2PC
	// blocks exactly when the coordinator fails.
	if good := CheckResilience(build(t, protocol.CentralTwoPC(4))); len(good) != 1 || good[0] != 1 {
		t.Errorf("central 2PC resilient sites = %v, want [1]", good)
	}
	// Decentralized 2PC is symmetric: every site can block.
	if good := CheckResilience(build(t, protocol.DecentralizedTwoPC(3))); len(good) != 0 {
		t.Errorf("decentralized 2PC resilient sites = %v, want none", good)
	}
}

// TestLemma verifies slide 33: canonical 2PC violates both constraints of
// the lemma at w; canonical 3PC satisfies it.
func TestLemma(t *testing.T) {
	viol := CheckLemma(protocol.CanonicalTwoPC())
	if len(viol) != 2 {
		t.Fatalf("canonical 2PC lemma violations = %v", viol)
	}
	for _, v := range viol {
		if v.State != protocol.StateW {
			t.Errorf("violation at %s, want w", v.State)
		}
		if !strings.Contains(v.String(), "state w") {
			t.Errorf("violation string = %q", v.String())
		}
	}
	if viol := CheckLemma(protocol.CanonicalThreePC()); len(viol) != 0 {
		t.Fatalf("canonical 3PC lemma violations = %v", viol)
	}
}

// TestMakeNonblockingSkeleton reproduces slide 34: inserting the buffer
// state p between w and c turns the canonical 2PC into the canonical 3PC.
func TestMakeNonblockingSkeleton(t *testing.T) {
	got, err := MakeNonblockingSkeleton(protocol.CanonicalTwoPC())
	if err != nil {
		t.Fatal(err)
	}
	if len(CheckLemma(got)) != 0 {
		t.Fatalf("synthesized skeleton still violates the lemma")
	}
	if !StructurallyEquivalent(got, protocol.CanonicalThreePC()) {
		_, edges := Skeleton(got)
		t.Fatalf("synthesized skeleton differs from canonical 3PC: %v", edges)
	}
	// Idempotent on already-nonblocking input.
	again, err := MakeNonblockingSkeleton(got)
	if err != nil {
		t.Fatal(err)
	}
	if !StructurallyEquivalent(again, got) {
		t.Fatal("synthesis not idempotent on nonblocking input")
	}
}

// TestSynthesizeCentralBuffer verifies the message-level construction:
// mechanically inserting a prepare/ack round into the central-site 2PC
// yields a protocol that is structurally the central-site 3PC of slide 35
// and satisfies the fundamental theorem.
func TestSynthesizeCentralBuffer(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		syn, err := SynthesizeCentralBuffer(protocol.CentralTwoPC(n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		ref := protocol.CentralThreePC(n)
		for i := range syn.Sites {
			if !StructurallyEquivalent(syn.Sites[i], ref.Sites[i]) {
				t.Errorf("n=%d site %d: synthesized skeleton differs from slide-35 3PC", n, i+1)
			}
		}
		r := CheckTheorem(build(t, syn))
		if !r.Nonblocking() {
			t.Errorf("n=%d synthesized central 3PC:\n%s", n, r.String())
		}
	}
}

// TestTerminationRule reproduces slide 40: the backup coordinator commits
// iff its state is in {p, c} and aborts from {q, w, a}. The rule applies to
// the slaves of the central-site 3PC (the backup is elected among them) and
// to every site of the decentralized 3PC.
func TestTerminationRule(t *testing.T) {
	want := map[protocol.StateID]Decision{
		protocol.StateQ: DecideAbort,
		protocol.StateW: DecideAbort,
		protocol.StateA: DecideAbort,
		protocol.StateP: DecideCommit,
		protocol.StateC: DecideCommit,
	}

	central := Analyze(build(t, protocol.CentralThreePC(3)))
	for _, site := range []protocol.SiteID{2, 3} {
		for s, w := range want {
			d, err := TerminationRule(central, site, s)
			if err != nil {
				t.Fatalf("site %d state %s: %v", site, s, err)
			}
			if d != w {
				t.Errorf("central slave %d state %s: decision %s, want %s", site, s, d, w)
			}
		}
	}
	// The coordinator's own p differs: while the coordinator sits in p no
	// slave can have committed (commits require the coordinator's commit
	// message), so CS(p1) has no commit state and the rule aborts — which is
	// consistent, since nobody committed.
	if d, err := TerminationRule(central, 1, protocol.StateP); err != nil || d != DecideAbort {
		t.Errorf("coordinator p: decision %v err %v, want abort", d, err)
	}

	decent := Analyze(build(t, protocol.DecentralizedThreePC(3)))
	for _, site := range []protocol.SiteID{1, 2, 3} {
		for s, w := range want {
			d, err := TerminationRule(decent, site, s)
			if err != nil {
				t.Fatalf("site %d state %s: %v", site, s, err)
			}
			if d != w {
				t.Errorf("decentralized site %d state %s: decision %s, want %s", site, s, d, w)
			}
		}
	}
	if _, err := TerminationRule(decent, 2, "zz"); err == nil {
		t.Fatal("unknown state should fail")
	}
}

// TestTerminationRuleSafety is the sufficiency half of the theorem for 3PC:
// in every reachable global state, the decision the rule derives from any
// single operational site's local state is consistent with every final local
// state already reached by the other sites. (For 2PC this fails at w — that
// is blocking; here we assert it holds everywhere for 3PC.)
func TestTerminationRuleSafety(t *testing.T) {
	for _, p := range []*protocol.Protocol{
		protocol.CentralThreePC(2), protocol.CentralThreePC(3),
		protocol.DecentralizedThreePC(2), protocol.DecentralizedThreePC(3),
	} {
		g := build(t, p)
		a := Analyze(g)
		for _, n := range g.Nodes {
			for i := range n.Locals {
				site := protocol.SiteID(i + 1)
				d, err := TerminationRule(a, site, n.Locals[i])
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				for j := range n.Locals {
					aut := g.Protocol.Sites[j]
					k, _ := aut.Kind(n.Locals[j])
					if k == protocol.KindCommit && d != DecideCommit {
						t.Fatalf("%s: state %s: site %d decides %s but site %d committed",
							p.Name, n, int(site), d, j+1)
					}
					if k == protocol.KindAbort && d != DecideAbort {
						t.Fatalf("%s: state %s: site %d decides %s but site %d aborted",
							p.Name, n, int(site), d, j+1)
					}
				}
			}
		}
	}
}

// TestSynchronousWithinOne verifies slide 24/26: all four 2PC/3PC protocols
// are synchronous within one state transition.
func TestSynchronousWithinOne(t *testing.T) {
	for _, p := range []*protocol.Protocol{
		protocol.CentralTwoPC(3), protocol.DecentralizedTwoPC(3),
		protocol.CentralThreePC(3), protocol.DecentralizedThreePC(3),
	} {
		ok, counter, err := SynchronousWithinOne(p, BuildOptions{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !ok {
			t.Errorf("%s not synchronous within one transition: %s", p.Name, counter)
		}
	}
}

// TestStructuralEquivalence verifies slide 31: the central-site and
// decentralized 2PC protocols are structurally equivalent (their site
// skeletons coincide with the canonical 2PC).
func TestStructuralEquivalence(t *testing.T) {
	canon := protocol.CanonicalTwoPC()
	slave := protocol.CentralTwoPC(3).Sites[1]
	peer := protocol.DecentralizedTwoPC(3).Sites[0]
	if !StructurallyEquivalent(slave, canon) {
		t.Error("central-site slave not equivalent to canonical 2PC")
	}
	if !StructurallyEquivalent(peer, canon) {
		t.Error("decentralized peer not equivalent to canonical 2PC")
	}
	if !StructurallyEquivalent(slave, peer) {
		t.Error("slave and peer skeletons differ")
	}
	// And 3PC counterparts.
	canon3 := protocol.CanonicalThreePC()
	if !StructurallyEquivalent(protocol.CentralThreePC(3).Sites[1], canon3) {
		t.Error("central-site 3PC slave not equivalent to canonical 3PC")
	}
	if !StructurallyEquivalent(protocol.DecentralizedThreePC(3).Sites[0], canon3) {
		t.Error("decentralized 3PC peer not equivalent to canonical 3PC")
	}
	// Negative case.
	if StructurallyEquivalent(canon, canon3) {
		t.Error("2PC and 3PC skeletons reported equivalent")
	}
}

func TestMsgBag(t *testing.T) {
	b := MsgBag{}
	m := protocol.Msg{Name: "yes", From: 2, To: 1}
	b.Add(m, 2)
	if b.Count(m) != 2 || b.size() != 2 {
		t.Fatalf("bag = %v", b)
	}
	b.Add(m, -2)
	if b.Count(m) != 0 || len(b) != 0 {
		t.Fatalf("bag after removal = %v", b)
	}
	b.Add(m, 0)
	if len(b) != 0 {
		t.Fatal("Add(0) should be a no-op")
	}
	b.Add(m, 1)
	c := b.Clone()
	c.Add(m, 1)
	if b.Count(m) != 1 || c.Count(m) != 2 {
		t.Fatal("Clone is not independent")
	}
	if got := b.String(); !strings.Contains(got, "yes[2->1]*1") {
		t.Fatalf("String = %q", got)
	}
	if got := (MsgBag{}).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestGraphBounds(t *testing.T) {
	_, err := Build(protocol.DecentralizedTwoPC(3), BuildOptions{MaxNodes: 5})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("expected bound error, got %v", err)
	}
}

func TestSetErrors(t *testing.T) {
	a := Analyze(build(t, protocol.CentralTwoPC(2)))
	if _, err := a.Set(1, "zz"); err == nil {
		t.Fatal("Set of unoccupied state should fail")
	}
	// Coordinator never occupies p in 2PC.
	if _, err := a.Set(1, protocol.StateP); err == nil {
		t.Fatal("Set(p) should fail for 2PC")
	}
}

func TestDOTOutputs(t *testing.T) {
	var sb strings.Builder
	if err := WriteAutomatonDOT(&sb, protocol.CanonicalThreePC()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph", "doublecircle", "doubleoctagon", `"q" -> "w"`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("automaton DOT missing %q", want)
		}
	}
	sb.Reset()
	g := build(t, protocol.CentralTwoPC(2))
	if err := WriteGraphDOT(&sb, g); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph", "shape=box", "->"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("graph DOT missing %q", want)
		}
	}
}

func TestCommittableSummary(t *testing.T) {
	a := Analyze(build(t, protocol.DecentralizedThreePC(2)))
	got := CommittableSummary(a)
	if got != "s1:{c,p} s2:{c,p}" {
		t.Fatalf("CommittableSummary = %q", got)
	}
}

func TestNodeString(t *testing.T) {
	g := build(t, protocol.CentralTwoPC(2))
	s := g.Initial.String()
	if !strings.HasPrefix(s, "<q,q>") {
		t.Fatalf("Node.String = %q", s)
	}
}

// TestCheckTermination model-checks the backup decision rule over every
// reachable global state and backup choice: clean for 3PC (sufficiency of
// the theorem), counterexamples for 2PC.
func TestCheckTermination(t *testing.T) {
	for _, p := range []*protocol.Protocol{
		protocol.CentralThreePC(2), protocol.CentralThreePC(3), protocol.CentralThreePC(4),
		protocol.DecentralizedThreePC(2), protocol.DecentralizedThreePC(3),
	} {
		if viol := CheckTermination(build(t, p)); len(viol) != 0 {
			t.Errorf("%s: %d violations, first: %s", p.Name, len(viol), viol[0])
		}
	}
	for _, p := range []*protocol.Protocol{
		protocol.CentralTwoPC(3), protocol.DecentralizedTwoPC(3),
	} {
		viol := CheckTermination(build(t, p))
		if len(viol) == 0 {
			t.Errorf("%s: expected termination counterexamples", p.Name)
			continue
		}
		// Every counterexample must involve a backup in the uncertainty
		// state w.
		for _, v := range viol {
			if got := v.State.Locals[int(v.Backup)-1]; got != protocol.StateW {
				t.Errorf("%s: violation with backup in %s, want w: %s", p.Name, got, v)
			}
			if v.String() == "" {
				t.Error("empty violation string")
			}
		}
	}
}

// TestAnalysisOnCompiledProtocols runs the full pipeline over protocols
// written in the DSL: a user's 2PC is branded blocking, a user's
// decentralized 3PC nonblocking — the designer workflow end to end.
func TestAnalysisOnCompiledProtocols(t *testing.T) {
	twoPC := `
protocol user-2pc
roles coordinator@1 slave@rest
init request@1
role coordinator
  states q* w a! c+
  q -> w : recv request@env ; send xact@slaves
  w -> c : recv yes@slaves  ; send commit@slaves ; vote yes
  w -> a : recv yes@slaves  ; send abort@slaves  ; vote no
  w -> a : recv no@any      ; send abort@slaves
role slave
  states q* w a! c+
  q -> w : recv xact@coordinator ; send yes@coordinator ; vote yes
  q -> a : recv xact@coordinator ; send no@coordinator  ; vote no
  w -> c : recv commit@coordinator
  w -> a : recv abort@coordinator
`
	p2, err := protocol.Compile(twoPC, 3)
	if err != nil {
		t.Fatal(err)
	}
	r2 := CheckTheorem(build(t, p2))
	if r2.Nonblocking() {
		t.Fatal("compiled 2PC reported nonblocking")
	}
	for _, v := range r2.Violations {
		if v.State.State != protocol.StateW {
			t.Errorf("violation at %s, want w", v.State)
		}
	}

	threePC := `
protocol user-d3pc
roles peer@all
init xact@all
role peer
  states q* w p a! c+
  q -> w : recv xact@env ; send yes@all ; vote yes
  q -> a : recv xact@env ; send no@all  ; vote no
  w -> p : recv yes@all  ; send prepare@all
  w -> a : recv no@any
  p -> c : recv prepare@all
`
	p3, err := protocol.Compile(threePC, 3)
	if err != nil {
		t.Fatal(err)
	}
	r3 := CheckTheorem(build(t, p3))
	if !r3.Nonblocking() {
		t.Fatalf("compiled decentralized 3PC:\n%s", r3)
	}
	if got := r3.Analysis.CommittableStates(1); !namesEqual(got, protocol.StateC, protocol.StateP) {
		t.Fatalf("committable = %v", got)
	}
	if viol := CheckTermination(build(t, p3)); len(viol) != 0 {
		t.Fatalf("termination counterexamples on compiled 3PC: %v", viol[0])
	}
}

// TestPathTo produces execution witnesses: every reachable state has a path
// from the initial state whose steps replay to exactly that state vector.
func TestPathTo(t *testing.T) {
	g := build(t, protocol.CentralTwoPC(2))
	for _, n := range g.SortedNodes() {
		steps, err := g.PathTo(n)
		if err != nil {
			t.Fatalf("PathTo(%s): %v", n, err)
		}
		// Replay the steps over local state vectors.
		locals := []string{"q", "q"}
		for _, st := range steps {
			if locals[st.Site-1] != st.From {
				t.Fatalf("witness step %v does not match replay state %v", st, locals)
			}
			locals[st.Site-1] = st.To
		}
		for i := range locals {
			if locals[i] != string(n.Locals[i]) {
				t.Fatalf("witness for %s replays to %v", n, locals)
			}
		}
	}
	// Initial state: empty path with the sentinel rendering.
	steps, err := g.PathTo(g.Initial)
	if err != nil || len(steps) != 0 {
		t.Fatalf("initial path = %v, %v", steps, err)
	}
	if FormatPath(steps) != "(initial state)" {
		t.Fatalf("FormatPath(empty) = %q", FormatPath(steps))
	}
	// A foreign node is rejected.
	other := build(t, protocol.CentralTwoPC(3))
	if _, err := g.PathTo(other.Initial); err == nil {
		t.Fatal("foreign node accepted")
	}
}

// TestTerminationWitness pairs the model checker with witness paths: for a
// 2PC counterexample the witness path replays to the violating state.
func TestTerminationWitness(t *testing.T) {
	g := build(t, protocol.CentralTwoPC(3))
	viol := CheckTermination(g)
	if len(viol) == 0 {
		t.Fatal("no counterexamples")
	}
	steps, err := g.PathTo(viol[0].State)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("violating state should not be initial")
	}
	if FormatPath(steps) == "" {
		t.Fatal("empty witness rendering")
	}
}

// TestTheoremOn1PC: the paper dismisses 1PC for lacking unilateral abort,
// but the theorem also brands it blocking: a slave still in q cannot know
// whether the coordinator already committed, so q is a noncommittable state
// with a commit state in its concurrency set.
func TestTheoremOn1PC(t *testing.T) {
	r := CheckTheorem(build(t, protocol.OnePC(3)))
	if r.Nonblocking() {
		t.Fatal("1PC reported nonblocking")
	}
	foundQ := false
	for _, v := range r.Violations {
		if v.State.State == protocol.StateQ && v.Kind == NoncommittableSeesCommit {
			foundQ = true
		}
	}
	if !foundQ {
		t.Fatalf("expected a q violation, got %v", r.Violations)
	}
}

// TestWildcardEnumeration: a wildcard read over two available senders makes
// the graph branch into both consumptions.
func TestWildcardEnumeration(t *testing.T) {
	// Site 1 waits for a "sig" from ANY of sites 2 and 3, which both send
	// one on startup.
	p := &protocol.Protocol{
		Name: "wildcard-test",
		Sites: []*protocol.Automaton{
			{
				Site: 1, Name: "sink", Initial: "q",
				States: map[protocol.StateID]protocol.StateKind{
					"q": protocol.KindInitial, "c": protocol.KindCommit,
				},
				Transitions: []protocol.Transition{
					{From: "q", To: "c", Reads: []protocol.Pattern{{Name: "sig", From: protocol.AnySite}}},
				},
			},
			{
				Site: 2, Name: "src", Initial: "q",
				States: map[protocol.StateID]protocol.StateKind{
					"q": protocol.KindInitial, "c": protocol.KindCommit,
				},
				Transitions: []protocol.Transition{
					{From: "q", To: "c",
						Reads: []protocol.Pattern{{Name: "go", From: protocol.Env}},
						Sends: []protocol.Msg{{Name: "sig", From: 2, To: 1}}},
				},
			},
			{
				Site: 3, Name: "src", Initial: "q",
				States: map[protocol.StateID]protocol.StateKind{
					"q": protocol.KindInitial, "c": protocol.KindCommit,
				},
				Transitions: []protocol.Transition{
					{From: "q", To: "c",
						Reads: []protocol.Pattern{{Name: "go", From: protocol.Env}},
						Sends: []protocol.Msg{{Name: "sig", From: 3, To: 1}}},
				},
			},
		},
		Initial: []protocol.Msg{
			{Name: "go", From: protocol.Env, To: 2},
			{Name: "go", From: protocol.Env, To: 3},
		},
	}
	g := build(t, p)
	// Find the state where both sigs are outstanding and site 1 is in q:
	// it must have two distinct successors via site 1 (one per sender).
	found := false
	for _, n := range g.Nodes {
		if n.Locals[0] != "q" || n.Net.size() != 2 {
			continue
		}
		bySender := map[int]bool{}
		for _, e := range n.Succs {
			if e.Site == 1 {
				for _, m := range e.Consumed {
					bySender[int(m.From)] = true
				}
			}
		}
		if bySender[2] && bySender[3] {
			found = true
		}
	}
	if !found {
		t.Fatal("wildcard did not enumerate both senders")
	}
}

// TestSynchronyCounterexample: a protocol whose coordinator aborts on the
// first NO without collecting the full round is NOT synchronous within one
// state transition — the check produces a concrete counterexample.
func TestSynchronyCounterexample(t *testing.T) {
	src := `
protocol eager-2pc
roles coordinator@1 slave@rest
init request@1
role coordinator
  states q* w a! c+
  q -> w : recv request@env ; send xact@slaves
  w -> c : recv yes@slaves  ; send commit@slaves ; vote yes
  w -> a : recv no@any      ; send abort@slaves
role slave
  states q* w a! c+
  q -> w : recv xact@coordinator ; send yes@coordinator ; vote yes
  q -> a : recv xact@coordinator ; send no@coordinator  ; vote no
  w -> c : recv commit@coordinator
  w -> a : recv abort@coordinator
`
	p, err := protocol.Compile(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	ok, counter, err := SynchronousWithinOne(p, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("eager-abort 2PC reported synchronous")
	}
	if !strings.Contains(counter, "lead by more than one transition") {
		t.Fatalf("counterexample = %q", counter)
	}
}
