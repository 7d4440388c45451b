package clock

import "time"

// DefaultBase is the base a zero budget stands for: kvnode's -timeout
// default.
const DefaultBase = 500 * time.Millisecond

// Budget is every timer a node runs, each a stated ratio of one base
// duration, the protocol timeout. NewBudget is the only table of ratios;
// the relations the protocols need between the timers are asserted, each
// with its reason, in budget_test.go.
type Budget struct {
	Protocol   time.Duration // wait for one protocol message (the base)
	Heartbeat  time.Duration // heartbeat send interval
	Suspicion  time.Duration // silence after which a peer is suspected
	LockWait   time.Duration // a kv lock wait
	Call       time.Duration // a data-plane request's wait for its reply
	CommitWait time.Duration // a COMMIT's wait for the decision
	RedialBase time.Duration // redial backoff after the first failed dial
	RedialCap  time.Duration // redial backoff after many failed dials
	Dial       time.Duration // one dial attempt
	GC         time.Duration // version-chain GC interval
	Forget     time.Duration // grace before a settled transaction is forgotten
}

// NewBudget derives the budget from base. A non-positive base means
// DefaultBase; the comments give the values at DefaultBase.
func NewBudget(base time.Duration) Budget {
	if base <= 0 {
		base = DefaultBase
	}
	return Budget{
		Protocol:   base,          // 500 ms
		Heartbeat:  base * 3 / 10, // 150 ms
		Suspicion:  base * 6 / 5,  // 600 ms
		LockWait:   base / 2,      // 250 ms
		Call:       base,          // 500 ms
		CommitWait: base * 20,     // 10 s
		RedialBase: base / 10,     // 50 ms
		RedialCap:  base / 4,      // 125 ms
		Dial:       base,          // 500 ms
		GC:         base * 10,     // 5 s
		Forget:     base * 60,     // 30 s
	}
}
