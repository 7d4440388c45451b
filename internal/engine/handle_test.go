package engine_test

import (
	"testing"
	"time"

	"nbcommit/internal/clock"
	"nbcommit/internal/engine"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// TestHandleOutlivesForget: the caller that starts a commit keeps its answer
// after every site has forgotten the transaction. With ForgetAfter 1 ms the
// cohort settles (votes, decision, DEC-ACKs) and the virtual clock then moves
// past the grace period, so no site's table holds the txid any more. A second
// lookup by txid (WaitOutcome) can only wait out its timeout and report the
// transaction unknown; the handle reads the decision from the record Begin
// created and answers at once, with the clock standing still.
func TestHandleOutlivesForget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cohort []int
	}{
		{"cohort=3", []int{1, 2, 3}},
		{"cohort=1", []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const forgetAfter = time.Millisecond
			clk := clock.NewVirtual()
			net := transport.NewSimNetwork()
			sites := map[int]*engine.Site{}
			for _, id := range tc.cohort {
				s, err := engine.New(engine.Config{
					ID:            id,
					Endpoint:      net.Endpoint(id),
					Log:           wal.NewMemoryLog(),
					Resource:      newTestResource(),
					Detector:      net,
					Protocol:      engine.TwoPhase,
					Timeout:       time.Second,
					ForgetAfter:   forgetAfter,
					Clock:         clk,
					Deterministic: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				s.Start()
				defer s.Stop()
				sites[id] = s
			}
			settle := func() {
				for net.Pending() > 0 {
					m, _ := net.Take(0)
					sites[m.To].Deliver(m)
				}
			}

			h, err := sites[1].Begin("t1", tc.cohort, false)
			if err != nil {
				t.Fatal(err)
			}
			settle()
			clk.Advance(2 * forgetAfter)
			settle()
			for id, s := range sites {
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
