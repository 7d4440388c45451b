package protocol

import (
	"strings"
	"testing"
)

func TestBuildersValidate(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		for _, p := range []*Protocol{
			OnePC(n), CentralTwoPC(n), DecentralizedTwoPC(n),
			CentralThreePC(n), DecentralizedThreePC(n),
		} {
			if err := Validate(p); err != nil {
				t.Errorf("n=%d %s: %v", n, p.Name, err)
			}
		}
	}
}

func TestSiteLookup(t *testing.T) {
	p := CentralTwoPC(3)
	a, err := p.Site(2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Site != 2 || a.Name != "slave" {
		t.Fatalf("Site(2) = %v/%s", a.Site, a.Name)
	}
	if _, err := p.Site(0); err == nil {
		t.Fatal("Site(0) should fail")
	}
	if _, err := p.Site(4); err == nil {
		t.Fatal("Site(4) should fail")
	}
}

func TestStateKinds(t *testing.T) {
	if KindCommit.String() != "commit" || KindAbort.String() != "abort" ||
		KindInitial.String() != "initial" || KindIntermediate.String() != "intermediate" {
		t.Fatal("StateKind.String mismatch")
	}
	if !KindCommit.Final() || !KindAbort.Final() {
		t.Fatal("final kinds not final")
	}
	if KindInitial.Final() || KindIntermediate.Final() {
		t.Fatal("non-final kinds reported final")
	}
}

func TestMsgAndPatternString(t *testing.T) {
	m := Msg{Name: "yes", From: 2, To: 1}
	if got := m.String(); got != "yes[2->1]" {
		t.Fatalf("Msg.String = %q", got)
	}
	env := Msg{Name: "xact", From: Env, To: 3}
	if got := env.String(); got != "xact[env->3]" {
		t.Fatalf("env Msg.String = %q", got)
	}
	if got := (Pattern{Name: "no", From: AnySite}).String(); got != "no[*]" {
		t.Fatalf("wildcard Pattern.String = %q", got)
	}
	if got := (Pattern{Name: "xact", From: Env}).String(); got != "xact[env]" {
		t.Fatalf("env Pattern.String = %q", got)
	}
	if got := (Pattern{Name: "yes", From: 4}).String(); got != "yes[4]" {
		t.Fatalf("Pattern.String = %q", got)
	}
}

func TestTransitionString(t *testing.T) {
	tr := Transition{
		From:  StateW,
		To:    StateC,
		Reads: []Pattern{{Name: "yes", From: 2}},
		Sends: []Msg{{Name: "commit", From: 1, To: 2}},
	}
	s := tr.String()
	if !strings.Contains(s, "w --") || !strings.Contains(s, "--> c") {
		t.Fatalf("Transition.String = %q", s)
	}
}

func TestCentralTwoPCShape(t *testing.T) {
	p := CentralTwoPC(4)
	coord := p.Sites[0]
	if coord.Name != "coordinator" || coord.Initial != StateQ {
		t.Fatalf("coordinator malformed: %+v", coord)
	}
	// Slide 15: q->w, w->c (all yes + own yes), w->a (all yes + own no),
	// plus one w->a per combination of responses containing a NO (the
	// coordinator waits for a response from every slave each phase):
	// 3 + (2^3 - 1) = 10 for n=4.
	if got := len(coord.Transitions); got != 10 {
		t.Fatalf("coordinator transitions = %d, want 10", got)
	}
	// The commit transition must read a yes from every slave.
	var commitT *Transition
	for i := range coord.Transitions {
		if coord.Transitions[i].To == StateC {
			commitT = &coord.Transitions[i]
		}
	}
	if commitT == nil {
		t.Fatal("coordinator has no commit transition")
	}
	if len(commitT.Reads) != 3 {
		t.Fatalf("commit reads %d votes, want 3", len(commitT.Reads))
	}
	if commitT.Vote != VoteYes {
		t.Fatal("coordinator commit transition must carry its own yes vote")
	}
	if len(commitT.Sends) != 3 {
		t.Fatalf("commit sends %d messages, want 3", len(commitT.Sends))
	}
	// Slaves vote yes or no upon receiving the transaction.
	slave := p.Sites[1]
	yes, no := false, false
	for _, tr := range slave.Transitions {
		if tr.Vote == VoteYes {
			yes = true
		}
		if tr.Vote == VoteNo {
			no = true
		}
	}
	if !yes || !no {
		t.Fatal("slave missing yes/no vote transitions")
	}
}

func TestDecentralizedIncludesSelfMessages(t *testing.T) {
	// As in the paper, sites send messages to themselves during an
	// interchange.
	p := DecentralizedTwoPC(3)
	a := p.Sites[1] // site 2
	for _, tr := range a.Transitions {
		if tr.Vote != VoteYes {
			continue
		}
		foundSelf := false
		for _, m := range tr.Sends {
			if m.To == a.Site {
				foundSelf = true
			}
		}
		if !foundSelf {
			t.Fatal("yes-vote round does not include a self message")
		}
		if len(tr.Sends) != 3 {
			t.Fatalf("vote round sends %d messages, want 3", len(tr.Sends))
		}
	}
}

func TestPhases(t *testing.T) {
	cases := []struct {
		p    *Protocol
		want int
	}{
		{OnePC(3), 1},
		{CentralTwoPC(3), 2},
		{DecentralizedTwoPC(3), 2},
		{CentralThreePC(3), 3},
		{DecentralizedThreePC(3), 3},
	}
	for _, c := range cases {
		got, err := Phases(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.p.Name, err)
		}
		if got != c.want {
			t.Errorf("%s: phases = %d, want %d", c.p.Name, got, c.want)
		}
	}
}

func TestDepth(t *testing.T) {
	a := CanonicalThreePC()
	for _, c := range []struct {
		s    StateID
		want int
	}{{StateQ, 0}, {StateW, 1}, {StateP, 2}, {StateC, 3}, {StateA, 2}} {
		got, err := a.Depth(c.s)
		if err != nil {
			t.Fatalf("Depth(%s): %v", c.s, err)
		}
		if got != c.want {
			t.Errorf("Depth(%s) = %d, want %d", c.s, got, c.want)
		}
	}
	if _, err := a.Depth("zz"); err == nil {
		t.Fatal("Depth of unknown state should fail")
	}
}

func TestUnilateralAbort(t *testing.T) {
	// 1PC is inadequate: no unilateral abort (slide 8).
	if err := CheckUnilateralAbort(OnePC(3)); err == nil {
		t.Fatal("1PC should fail the unilateral abort check")
	}
	for _, p := range []*Protocol{
		CentralTwoPC(3), DecentralizedTwoPC(3), CentralThreePC(3), DecentralizedThreePC(3),
	} {
		if err := CheckUnilateralAbort(p); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() *Protocol { return CentralTwoPC(2) }

	p := base()
	p.Sites[1].Transitions = append(p.Sites[1].Transitions,
		Transition{From: StateC, To: StateA, Reads: []Pattern{{Name: "x", From: 1}}})
	if err := Validate(p); err == nil || !strings.Contains(err.Error(), "irreversible") {
		t.Fatalf("leaving a final state must be rejected, got %v", err)
	}

	p = base()
	p.Sites[1].Transitions = append(p.Sites[1].Transitions,
		Transition{From: StateW, To: StateQ, Reads: []Pattern{{Name: "x", From: 1}}})
	if err := Validate(p); err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Fatalf("cycles must be rejected, got %v", err)
	}

	p = base()
	p.Sites[1].Transitions[0].Reads = nil
	if err := Validate(p); err == nil || !strings.Contains(err.Error(), "empty message") {
		t.Fatalf("empty reads must be rejected, got %v", err)
	}

	p = base()
	p.Sites[1].Transitions[0].Sends = []Msg{{Name: "x", From: 9, To: 1}}
	if err := Validate(p); err == nil || !strings.Contains(err.Error(), "forged sender") {
		t.Fatalf("forged senders must be rejected, got %v", err)
	}

	p = base()
	p.Sites[1].Transitions[0].Sends = []Msg{{Name: "x", From: 2, To: 9}}
	if err := Validate(p); err == nil || !strings.Contains(err.Error(), "unknown site") {
		t.Fatalf("unknown destinations must be rejected, got %v", err)
	}

	p = base()
	p.Sites[1].Transitions[0].To = "zz"
	if err := Validate(p); err == nil || !strings.Contains(err.Error(), "unknown state") {
		t.Fatalf("unknown states must be rejected, got %v", err)
	}

	p = base()
	p.Initial = nil
	if err := Validate(p); err == nil || !strings.Contains(err.Error(), "initial environment") {
		t.Fatalf("missing initial messages must be rejected, got %v", err)
	}

	p = base()
	p.Initial = []Msg{{Name: MsgRequest, From: 2, To: 1}}
	if err := Validate(p); err == nil || !strings.Contains(err.Error(), "environment") {
		t.Fatalf("non-env initial messages must be rejected, got %v", err)
	}
}

func TestAdjacent(t *testing.T) {
	a := CanonicalTwoPC()
	adj := a.adjacent(StateQ)
	if len(adj) != 2 || adj[0] != StateA || adj[1] != StateW {
		t.Fatalf("Adjacent(q) = %v", adj)
	}
	if got := a.adjacent(StateC); len(got) != 0 {
		t.Fatalf("Adjacent(c) = %v, want none", got)
	}
}

func TestStateIDsOrder(t *testing.T) {
	a := CanonicalThreePC()
	ids := a.StateIDs()
	// initial first, intermediates next, abort, then commit.
	want := []StateID{StateQ, StateP, StateW, StateA, StateC}
	if len(ids) != len(want) {
		t.Fatalf("StateIDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("StateIDs = %v, want %v", ids, want)
		}
	}
}

func TestKindErrors(t *testing.T) {
	a := CanonicalTwoPC()
	if _, err := a.Kind("nope"); err == nil {
		t.Fatal("Kind of unknown state should fail")
	}
	k, err := a.Kind(StateC)
	if err != nil || k != KindCommit {
		t.Fatalf("Kind(c) = %v, %v", k, err)
	}
}
