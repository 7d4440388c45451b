package clock

import (
	"testing"
	"time"
)

// TestBudgetRelations asserts every relation between timers that the
// protocols and the data plane rely on, at each base the repository runs
// with. The ratios live in NewBudget; a relation that fails at some base is
// a finding about that base, not a tolerance to widen.
func TestBudgetRelations(t *testing.T) {
	bases := []struct {
		who  string
		base time.Duration
	}{
		{"kvnode", DefaultBase},
		{"kvnode process tests", 300 * time.Millisecond},
		{"dtx examples", 100 * time.Millisecond},
		{"dtx tests", 50 * time.Millisecond},
		{"DST", 50 * time.Millisecond},
		{"DST hostile", time.Second},
	}
	relations := []struct {
		name, why string
		holds     func(b Budget) bool
	}{
		{"redial cap < call", "a message queued behind a backoff window is written before its caller gives up",
			func(b Budget) bool { return b.RedialCap < b.Call }},
		{"call ≤ suspicion", "a restarted peer is redialled, and answers, before anyone suspects it",
			func(b Budget) bool { return b.Call <= b.Suspicion }},
		{"dial ≤ call", "a dial that outlasts the call could only deliver messages whose callers gave up",
			func(b Budget) bool { return b.Dial <= b.Call }},
		{"suspicion ≥ 2 × heartbeat", "one lost or late heartbeat does not make a live peer suspected",
			func(b Budget) bool { return b.Suspicion >= 2*b.Heartbeat }},
		{"lock wait < call", "a blocked PUT answers `lock wait timed out`, not `call timed out`",
			func(b Budget) bool { return b.LockWait < b.Call }},
		{"redial cap + lock wait < call", "the same holds for a PUT that first waits out a backoff window",
			func(b Budget) bool { return b.RedialCap+b.LockWait < b.Call }},
		{"redial base < redial cap", "the backoff doubles at least once before it stops growing",
			func(b Budget) bool { return b.RedialBase < b.RedialCap }},
		{"commit wait ≥ termination", "a COMMIT outlasts the slowest decision of a three-site 3PC cohort: " +
			"the vote and ack waits, then for the coordinator and one backup a suspicion and the next backup's two phases",
			func(b Budget) bool { return b.CommitWait >= 2*b.Protocol+2*(b.Suspicion+2*b.Protocol) }},
		{"commit wait + redial cap + dial < forget", "a protocol message sent while the decision was still being reached, " +
			"then held behind a backoff window and a dial, lands before any site forgets the transaction: " +
			"a message for a forgotten txid would recreate it as a new, undecided transaction",
			func(b Budget) bool { return b.CommitWait+b.RedialCap+b.Dial < b.Forget }},
	}
	for _, at := range bases {
		b := NewBudget(at.base)
		for _, r := range relations {
			if !r.holds(b) {
				t.Errorf("%s (base %v): %s fails: %s\n%+v", at.who, at.base, r.name, r.why, b)
			}
		}
	}
}

// TestBudgetDefault pins the timers kvnode ran before they were derived, so
// deriving them changed nothing but the redial cap (2 s before, now below
// the call timeout) and the dial timeout (1 s before). The forget grace is
// the 30 s kvnode defaulted to when it was a flag of its own.
func TestBudgetDefault(t *testing.T) {
	want := Budget{
		Protocol:   500 * time.Millisecond,
		Heartbeat:  150 * time.Millisecond,
		Suspicion:  600 * time.Millisecond,
		LockWait:   250 * time.Millisecond,
		Call:       500 * time.Millisecond,
		CommitWait: 10 * time.Second,
		RedialBase: 50 * time.Millisecond,
		RedialCap:  125 * time.Millisecond,
		Dial:       500 * time.Millisecond,
		GC:         5 * time.Second,
		Forget:     30 * time.Second,
	}
	for _, base := range []time.Duration{0, -time.Second, DefaultBase} {
		if got := NewBudget(base); got != want {
			t.Errorf("NewBudget(%v) = %+v, want %+v", base, got, want)
		}
	}
}
