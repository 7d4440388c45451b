package engine_test

import (
	"strings"
	"testing"

	"nbcommit/internal/engine"
	"nbcommit/internal/trace"
	"nbcommit/internal/transport"
)

// seq extracts the ordered event kinds for one site.
func seq(rec *trace.Recorder, site int) []string {
	var out []string
	for _, e := range filter(rec, func(e trace.Event) bool { return e.Site == site }) {
		out = append(out, e.Kind)
	}
	return out
}

// filter returns the recorded events that keep selects, in order.
func filter(rec *trace.Recorder, keep func(trace.Event) bool) []trace.Event {
	var out []trace.Event
	for _, e := range rec.Events() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// TestTraceHappyPath3PC asserts the exact per-site event sequence of a
// failure-free 3PC commit: participants vote-yes -> prepared -> commit; the
// coordinator commits after collecting the acks.
func TestTraceHappyPath3PC(t *testing.T) {
	rec := &trace.Recorder{}
	c := newTracedCluster(t, engine.ThreePhase, 3, rec)
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.expect("t1", engine.OutcomeCommitted, 1, 2, 3)

	for _, site := range []int{2, 3} {
		got := seq(rec, site)
		want := []string{"vote-yes", "prepared", "commit"}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("site %d sequence = %v, want %v", site, got, want)
		}
	}
	if got := seq(rec, 1); strings.Join(got, ",") != "commit" {
		t.Errorf("coordinator sequence = %v, want [commit]", got)
	}
}

// TestTraceUnilateralAbort: the refusing site records vote-no then abort;
// the others record vote-yes then abort; nobody commits.
func TestTraceUnilateralAbort(t *testing.T) {
	rec := &trace.Recorder{}
	c := newTracedCluster(t, engine.ThreePhase, 3, rec)
	c.res[3].refuse("t1")
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.expect("t1", engine.OutcomeAborted, 1, 2, 3)

	got3 := seq(rec, 3)
	if strings.Join(got3, ",") != "vote-no,abort" {
		t.Errorf("refusing site sequence = %v", got3)
	}
	for _, e := range rec.Events() {
		if e.Kind == "commit" {
			t.Fatalf("aborted transaction committed at site %d", e.Site)
		}
	}
	// The vote-no event carries the resource's reason.
	noEvents := filter(rec, func(e trace.Event) bool { return e.Kind == "vote-no" })
	if len(noEvents) != 1 || !strings.Contains(noEvents[0].Note, "refuses") {
		t.Errorf("vote-no events = %v", noEvents)
	}
}

// TestTraceTermination: a coordinator crash produces a backup event at
// exactly one surviving site, followed by consistent outcomes.
func TestTraceTermination(t *testing.T) {
	rec := &trace.Recorder{}
	c := newTracedCluster(t, engine.ThreePhase, 3, rec)
	c.drop = func(m transport.Message) bool {
		return m.From == 1 && m.Kind == engine.KindCommit
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.reach(2, "t1", "p")
	c.reach(3, "t1", "p")
	c.crash(1)
	c.drop = nil
	c.expect("t1", engine.OutcomeCommitted, 2, 3)

	backups := filter(rec, func(e trace.Event) bool { return e.Kind == "backup" })
	if len(backups) == 0 {
		t.Fatal("no backup event recorded")
	}
	if backups[0].Site != 2 {
		t.Errorf("backup ran at site %d, want 2 (lowest operational)", backups[0].Site)
	}
	if !strings.Contains(backups[0].Note, "state p") {
		t.Errorf("backup note = %q, want state p", backups[0].Note)
	}
}

// TestTraceBlocked: the 2PC uncertainty window records a blocked event.
func TestTraceBlocked(t *testing.T) {
	rec := &trace.Recorder{}
	c := newTracedCluster(t, engine.TwoPhase, 3, rec)
	c.drop = func(m transport.Message) bool {
		return m.From == 1 && (m.Kind == engine.KindCommit || m.Kind == engine.KindAbort)
	}
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.reach(2, "t1", "w")
	c.reach(3, "t1", "w")
	c.crash(1)
	c.drop = nil
	c.untilBlocked(2, "t1")
	c.untilBlocked(3, "t1")

	blocked := filter(rec, func(e trace.Event) bool { return e.Kind == "blocked" })
	if len(blocked) < 2 {
		t.Fatalf("blocked events = %v, want one per survivor", blocked)
	}
}
