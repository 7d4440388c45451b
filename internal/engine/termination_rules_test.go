package engine

// Internal tests for two termination rules that no end-to-end schedule pins
// down on its own: the deterministic backup election, and the seal-abort a
// site applies when a status query finds it in q.

import (
	"testing"
	"time"

	"nbcommit/internal/clock"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// aliveSet is a failure.Detector over a fixed liveness view.
type aliveSet func(site int) bool

func (a aliveSet) Alive(site int) bool  { return a(site) }
func (a aliveSet) Watch(func(site int)) {}

// TestElectBackup: the backup is the lowest-numbered cohort member that is
// operational, not excluded and not the failed coordinator; with no such
// member there is no backup.
func TestElectBackup(t *testing.T) {
	all := func(int) bool { return true }
	for _, tc := range []struct {
		name     string
		alive    func(int) bool
		meta     TxMeta
		excluded cohortSet // by cohort position
		want     int
		ok       bool
	}{
		{"lowest operational", func(s int) bool { return s != 2 }, TxMeta{Coordinator: 1, Participants: []int{1, 2, 3, 4}}, 0, 3, true},
		{"lowest of all", all, TxMeta{Coordinator: 1, Participants: []int{1, 5, 7, 9}}, 0, 5, true},
		{"excluded skipped", all, TxMeta{Coordinator: 1, Participants: []int{1, 2, 3}}, 1 << 1, 3, true},
		{"none alive", func(int) bool { return false }, TxMeta{Coordinator: 3, Participants: []int{1, 2, 3}}, 0, 0, false},
		{"no candidate", all, TxMeta{Coordinator: 1, Participants: []int{1}}, 0, 0, false},
	} {
		s := &Site{det: aliveSet(tc.alive)}
		got, ok := s.electBackup(&txState{meta: tc.meta, excluded: tc.excluded})
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: electBackup = %d, %v; want %d, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

// TestSealAbortAfterTermState: a site that never voted on t1 but holds a
// record of it in q — left by a TERM-STATE from a 3PC backup — answers a
// later STATUS-REQ with ABORT. The query means a termination attempt is
// under way that reads q as "never voted", so the site seals q by aborting;
// a late VOTE-REQ can then no longer revive its vote. A site with no record
// at all answers 'n' instead, and that half is pinned by the DST replay
// TestNoTraceAnswersNotAborts.
func TestSealAbortAfterTermState(t *testing.T) {
	net := transport.NewSimNetwork()
	s, err := New(Config{
		ID:            2,
		Endpoint:      net.Endpoint(2),
		Log:           wal.NewMemoryLog(),
		Resource:      nopResource{},
		Detector:      net,
		Protocol:      ThreePhase,
		Timeout:       time.Second,
		Clock:         clock.NewVirtual(),
		Deterministic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	net.Endpoint(3)

	meta := encodeMeta(TxMeta{Coordinator: 1, Participants: []int{1, 2, 3}})
	s.Deliver(transport.Message{From: 3, To: 2, Kind: KindTermState, TxID: "t1", Body: append([]byte{'w'}, meta...)})
	if p := s.Phase("t1"); p != "q" {
		t.Fatalf("after TERM-STATE site 2 is in %q, want a record in q", p)
	}
	s.Deliver(transport.Message{From: 3, To: 2, Kind: KindStatusReq, TxID: "t1", Body: meta})

	var answers []string
	for net.Pending() > 0 {
		m, _ := net.Take(0)
		if m.TxID == "t1" && m.To == 3 {
			answers = append(answers, m.Kind)
		}
	}
	if len(answers) != 2 || answers[0] != KindTermAck || answers[1] != KindAbort {
		t.Fatalf("site 2 sent %v to site 3, want [%s %s]", answers, KindTermAck, KindAbort)
	}
	if o, err := s.Outcome("t1"); err != nil || o != OutcomeAborted {
		t.Fatalf("site 2 outcome = %v, %v; want aborted", o, err)
	}
}
