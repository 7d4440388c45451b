package engine_test

import (
	"testing"
	"time"

	"nbcommit/internal/engine"
)

// TestHandleOutlivesForget: the caller that starts a commit keeps its answer
// after every site has forgotten the transaction. The cohort settles (votes,
// decision, DEC-ACKs) and the virtual clock then moves past the forget grace,
// so no site's table holds the txid any more. A second lookup by txid
// (WaitOutcome) can only wait out its timeout and report the transaction
// unknown; the handle reads the decision from the record Begin created and
// answers at once, with the clock standing still.
func TestHandleOutlivesForget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cohort []int
	}{
		{"cohort=3", []int{1, 2, 3}},
		{"cohort=1", []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newSimCluster(t, engine.TwoPhase, len(tc.cohort))
			h, err := c.sites[1].Begin("t1", tc.cohort, false)
			if err != nil {
				t.Fatal(err)
			}
			c.run(2 * grace)
			for id, s := range c.sites {
				if p := s.Phase("t1"); p != "?" {
					t.Fatalf("site %d still holds t1 in phase %s after the grace period", id, p)
				}
			}

			answer := make(chan string, 1)
			go func() {
				o, err := h.Wait(time.Hour)
				if err != nil {
					answer <- err.Error()
					return
				}
				answer <- o.String()
			}()
			select {
			case got := <-answer:
				if got != engine.OutcomeCommitted.String() {
					t.Fatalf("Wait = %s, want %s", got, engine.OutcomeCommitted)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Wait did not answer while the virtual clock stood still")
			}
		})
	}
}
