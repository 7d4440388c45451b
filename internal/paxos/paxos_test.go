package paxos

import (
	"bytes"
	"reflect"
	"testing"
)

func TestBallotArithmetic(t *testing.T) {
	if b := Ballot(0); b.Round() != 0 {
		t.Fatalf("ballot 0 round = %d", b.Round())
	}
	b := Next(0, 3)
	if b.Round() != 1 || b.Leader() != 3 {
		t.Fatalf("Next(0, 3) = round %d leader %d", b.Round(), b.Leader())
	}
	// Escalation from an observed ballot must strictly outrank it, whatever
	// the new leader's index.
	for _, leader := range []int{0, 1, 5, 63} {
		hi := Next(b, leader)
		if hi <= b {
			t.Fatalf("Next(%d, %d) = %d does not outrank", b, leader, hi)
		}
		if hi.Leader() != leader {
			t.Fatalf("Next leader = %d, want %d", hi.Leader(), leader)
		}
	}
	// Two leaders escalating from the same observation never collide.
	if Next(b, 1) == Next(b, 2) {
		t.Fatal("distinct leaders produced the same ballot")
	}
}

func TestAcceptorPromiseGuard(t *testing.T) {
	a := NewAcceptor(3)
	if !a.Promise(Next(0, 1)) {
		t.Fatal("fresh acceptor refused a higher promise")
	}
	high := a.Promised
	if a.Promise(0) {
		t.Fatal("acceptor demoted its promise to ballot 0")
	}
	if a.Promised != high {
		t.Fatalf("promise moved to %d after a refused demotion", a.Promised)
	}
	// Re-promising the same ballot is idempotent (duplicate 1a).
	if !a.Promise(high) {
		t.Fatal("acceptor refused its own promised ballot")
	}
}

func TestAcceptorAcceptGuard(t *testing.T) {
	a := NewAcceptor(3)
	// Ballot 0 is implicitly promised: the fast path needs no phase 1.
	if !a.Accept(0, 1, ValYes) {
		t.Fatal("fresh acceptor refused a ballot-0 accept")
	}
	if got := a.Accepts[1]; got.Val != ValYes || got.Bal != 0 {
		t.Fatalf("instance 1 = %+v", got)
	}
	// A higher promise blocks ballot-0 accepts afterwards...
	b1 := Next(0, 2)
	a.Promise(b1)
	if a.Accept(0, 2, ValYes) {
		t.Fatal("acceptor accepted below its promise")
	}
	if a.Accepts[2].Val != ValNone {
		t.Fatalf("refused accept still recorded: %+v", a.Accepts[2])
	}
	// ...but the promised ballot itself may overwrite an older acceptance.
	if !a.Accept(b1, 1, ValAbort) {
		t.Fatal("acceptor refused an accept at its promised ballot")
	}
	if got := a.Accepts[1]; got.Val != ValAbort || got.Bal != b1 {
		t.Fatalf("instance 1 after re-accept = %+v", got)
	}
	// Out-of-range instances are rejected, not a panic.
	if a.Accept(b1, 99, ValYes) || a.Accept(b1, -1, ValYes) {
		t.Fatal("acceptor accepted an out-of-range instance")
	}
}

func TestTally(t *testing.T) {
	var tl Tally
	if n := tl.Add(0, ValYes, 0); n != 1 {
		t.Fatalf("first 2b counted %d", n)
	}
	// Duplicate 2b from the same acceptor must not double-count.
	if n := tl.Add(0, ValYes, 0); n != 1 {
		t.Fatalf("duplicate 2b counted %d", n)
	}
	if n := tl.Add(0, ValYes, 2); n != 2 {
		t.Fatalf("second acceptor counted %d", n)
	}
	// A higher-ballot 2b resets the tally to the new ballot's value.
	hi := Next(0, 1)
	if n := tl.Add(hi, ValAbort, 1); n != 1 {
		t.Fatalf("higher-ballot 2b tallied %d", n)
	}
	if tl.Bal != hi || tl.Val != ValAbort {
		t.Fatalf("tally did not adopt the higher ballot: %+v", tl)
	}
	// Stale low-ballot 2bs are ignored after the reset.
	if n := tl.Add(0, ValYes, 3); n != 1 {
		t.Fatalf("stale 2b tallied %d", n)
	}
}

func TestQuorumMath(t *testing.T) {
	for _, c := range []struct{ n, maj int }{
		{1, 1}, {3, 2}, {5, 3}, {7, 4}, {4, 3},
	} {
		if m := Majority(c.n); m != c.maj {
			t.Fatalf("Majority(%d) = %d, want %d", c.n, m, c.maj)
		}
	}
}

func TestMergeKeepsHighestBallot(t *testing.T) {
	b1, b2 := Next(0, 1), Next(Next(0, 1), 2)
	into := []Accepted{{}, {Bal: b1, Val: ValYes}, {Bal: b2, Val: ValYes}}
	from := []Accepted{{Bal: 0, Val: ValYes}, {Bal: b2, Val: ValAbort}, {Bal: b1, Val: ValAbort}}
	Merge(into, from)
	if into[0].Val != ValYes || into[0].Bal != 0 {
		t.Fatalf("free instance did not adopt the acceptance: %+v", into[0])
	}
	if into[1].Val != ValAbort || into[1].Bal != b2 {
		t.Fatalf("higher-ballot acceptance lost: %+v", into[1])
	}
	if into[2].Val != ValYes || into[2].Bal != b2 {
		t.Fatalf("lower-ballot acceptance overwrote: %+v", into[2])
	}
	// A longer source vector must not write past the destination.
	Merge(into[:1], from)
}

func TestCodecRoundTrips(t *testing.T) {
	meta := []byte("cohort-metadata")
	bal := Next(Next(0, 3), 5)

	b, m, err := DecodeP1a(EncodeP1a(bal, meta))
	if err != nil || b != bal || !bytes.Equal(m, meta) {
		t.Fatalf("1a round trip: %v %v %q", b, err, m)
	}

	accepts := []Accepted{{Bal: 0, Val: ValYes}, {}, {Bal: bal, Val: ValAbort}}
	pb, acc, err := DecodeP1b(EncodeP1b(bal, accepts))
	if err != nil || pb != bal || len(acc) != len(accepts) {
		t.Fatalf("1b round trip: %v %v %v", pb, acc, err)
	}
	for i := range accepts {
		if acc[i] != accepts[i] {
			t.Fatalf("1b instance %d: %+v vs %+v", i, acc[i], accepts[i])
		}
	}

	b, inst, val, m, err := DecodeP2a(EncodeP2a(bal, 2, ValYes, meta))
	if err != nil || b != bal || inst != 2 || val != ValYes || !bytes.Equal(m, meta) {
		t.Fatalf("2a round trip: %v %d %c %q %v", b, inst, val, m, err)
	}

	b, inst, val, err = DecodeP2b(EncodeP2b(bal, 7, ValAbort))
	if err != nil || b != bal || inst != 7 || val != ValAbort {
		t.Fatalf("2b round trip: %v %d %c %v", b, inst, val, err)
	}

}

func TestCodecsRejectMalformed(t *testing.T) {
	if _, _, err := DecodeP1a(nil); err == nil {
		t.Fatal("1a decoded an empty body")
	}
	if _, _, err := DecodeP1b([]byte{1}); err == nil {
		t.Fatal("1b decoded a truncated body")
	}
	if _, _, err := DecodeP1b(append(EncodeP1b(5, []Accepted{{Bal: 5, Val: ValYes}}), 'x')); err == nil {
		t.Fatal("1b accepted trailing garbage")
	}
	// A 1b claiming more instances than MaxInstances is an attack or
	// corruption, never legitimate.
	huge := EncodeP1b(0, make([]Accepted, 2))
	huge[1] = 200
	if _, _, err := DecodeP1b(huge); err == nil {
		t.Fatal("1b accepted an oversized instance count")
	}
	if _, _, _, _, err := DecodeP2a([]byte{0}); err == nil {
		t.Fatal("2a decoded a truncated body")
	}
	if _, _, _, err := DecodeP2b([]byte{0, 1}); err == nil {
		t.Fatal("2b decoded a body with no value byte")
	}
	if _, _, _, err := DecodeP2b(append(EncodeP2b(0, 1, ValYes), 'x')); err == nil {
		t.Fatal("2b accepted trailing garbage")
	}
}

// FuzzPaxosBodies: arbitrary bytes never panic a decoder, and whatever a
// decoder accepts, its encoder writes back to a body that decodes to the
// same values.
func FuzzPaxosBodies(f *testing.F) {
	bal := Next(0, 3)
	f.Add(EncodeP1a(bal, []byte("meta")))
	f.Add(EncodeP1b(bal, []Accepted{{Bal: 0, Val: ValYes}, {Bal: bal, Val: ValAbort}}))
	f.Add(EncodeP2a(bal, 2, ValYes, []byte("meta")))
	f.Add(EncodeP2b(bal, 7, ValAbort))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		if b, meta, err := DecodeP1a(p); err == nil {
			b2, meta2, err := DecodeP1a(EncodeP1a(b, meta))
			if err != nil || b2 != b || !bytes.Equal(meta2, meta) {
				t.Fatalf("1a %x: (%d, %x) came back (%d, %x), %v", p, b, meta, b2, meta2, err)
			}
		}
		if b, accepts, err := DecodeP1b(p); err == nil {
			if len(accepts) > MaxInstances {
				t.Fatalf("1b %x decoded %d instances", p, len(accepts))
			}
			b2, accepts2, err := DecodeP1b(EncodeP1b(b, accepts))
			if err != nil || b2 != b || !reflect.DeepEqual(accepts2, accepts) {
				t.Fatalf("1b %x: (%d, %v) came back (%d, %v), %v", p, b, accepts, b2, accepts2, err)
			}
		}
		if b, inst, val, meta, err := DecodeP2a(p); err == nil {
			b2, inst2, val2, meta2, err := DecodeP2a(EncodeP2a(b, inst, val, meta))
			if err != nil || b2 != b || inst2 != inst || val2 != val || !bytes.Equal(meta2, meta) {
				t.Fatalf("2a %x: (%d, %d, %d, %x) came back (%d, %d, %d, %x), %v", p, b, inst, val, meta, b2, inst2, val2, meta2, err)
			}
		}
		if b, inst, val, err := DecodeP2b(p); err == nil {
			b2, inst2, val2, err := DecodeP2b(EncodeP2b(b, inst, val))
			if err != nil || b2 != b || inst2 != inst || val2 != val {
				t.Fatalf("2b %x: (%d, %d, %d) came back (%d, %d, %d), %v", p, b, inst, val, b2, inst2, val2, err)
			}
		}
	})
}
