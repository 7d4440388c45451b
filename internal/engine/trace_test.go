package engine_test

import (
	"strings"
	"testing"

	"nbcommit/internal/engine"
	"nbcommit/internal/trace"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// tracedCluster builds sites that share one trace recorder.
func tracedCluster(t *testing.T, kind engine.ProtocolKind, n int) (*cluster, *trace.Recorder) {
	t.Helper()
	rec := &trace.Recorder{}
	c := &cluster{
		t:     t,
		net:   transport.NewNetwork(),
		kind:  kind,
		sites: map[int]*engine.Site{},
		logs:  map[int]*wal.MemoryLog{},
		res:   map[int]*testResource{},
	}
	for i := 1; i <= n; i++ {
		c.ids = append(c.ids, i)
		c.logs[i] = wal.NewMemoryLog()
		c.res[i] = newTestResource()
		s, err := engine.New(engine.Config{
			ID:       i,
			Endpoint: c.net.Endpoint(i),
			Log:      c.logs[i],
			Resource: c.res[i],
			Detector: c.net,
			Protocol: kind,
			Timeout:  testTimeout,
			Trace:    rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.sites[i] = s
		s.Start()
	}
	t.Cleanup(func() {
		for _, s := range c.sites {
			s.Stop()
		}
	})
	return c, rec
}

// seq extracts the ordered event kinds for one site.
func seq(rec *trace.Recorder, site int) []string {
	var out []string
	for _, e := range rec.Filter(func(e trace.Event) bool { return e.Site == site }) {
		out = append(out, e.Kind)
	}
	return out
}

// TestTraceHappyPath3PC asserts the exact per-site event sequence of a
// failure-free 3PC commit: participants vote-yes -> prepared -> commit; the
// coordinator commits after collecting the acks.
func TestTraceHappyPath3PC(t *testing.T) {
	c, rec := tracedCluster(t, engine.ThreePhase, 3)
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
	c, rec := tracedCluster(t, engine.ThreePhase, 3)
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
	noEvents := rec.Filter(func(e trace.Event) bool { return e.Kind == "vote-no" })
	if len(noEvents) != 1 || !strings.Contains(noEvents[0].Note, "refuses") {
		t.Errorf("vote-no events = %v", noEvents)
	}
}

// TestTraceTermination: a coordinator crash produces a backup event at
// exactly one surviving site, followed by consistent outcomes.
func TestTraceTermination(t *testing.T) {
	c, rec := tracedCluster(t, engine.ThreePhase, 3)
	c.net.SetDropFunc(func(m transport.Message) bool {
		return m.From == 1 && m.Kind == engine.KindCommit
	})
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.waitPhase(2, "t1", "p")
	c.waitPhase(3, "t1", "p")
	c.crash(1)
	c.net.SetDropFunc(nil)
	c.expect("t1", engine.OutcomeCommitted, 2, 3)

	backups := rec.Filter(func(e trace.Event) bool { return e.Kind == "backup" })
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
	c, rec := tracedCluster(t, engine.TwoPhase, 3)
	c.net.SetDropFunc(func(m transport.Message) bool {
		return m.From == 1 && (m.Kind == engine.KindCommit || m.Kind == engine.KindAbort)
	})
	if _, err := c.sites[1].Begin("t1", c.ids, false); err != nil {
		t.Fatal(err)
	}
	c.waitPhase(2, "t1", "w")
	c.waitPhase(3, "t1", "w")
	c.crash(1)
	c.net.SetDropFunc(nil)
	c.waitBlocked(2, "t1")
	c.waitBlocked(3, "t1")

	blocked := rec.Filter(func(e trace.Event) bool { return e.Kind == "blocked" })
	if len(blocked) < 2 {
		t.Fatalf("blocked events = %v, want one per survivor", blocked)
	}
}
