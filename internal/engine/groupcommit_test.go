package engine_test

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nbcommit/internal/engine"
	"nbcommit/internal/transport"
	"nbcommit/internal/wal"
)

// gatedLog is a StagedLog for tests: records of the gated type are held in
// memory — neither written nor acknowledged — until release() (the fsync
// completes) or discard() (the site crashes before the batch reached disk).
// Everything else goes straight through to the inner MemoryLog.
type gatedLog struct {
	mu    sync.Mutex
	inner *wal.MemoryLog
	gates map[wal.RecordType]bool
	held  []heldRec
}

type heldRec struct {
	rec wal.Record
	fn  func(uint64, error)
}

func newGatedLog(gate ...wal.RecordType) *gatedLog {
	g := &gatedLog{inner: wal.NewMemoryLog(), gates: map[wal.RecordType]bool{}}
	for _, t := range gate {
		g.gates[t] = true
	}
	return g
}

func (g *gatedLog) Append(rec wal.Record) (uint64, error) { return g.inner.Append(rec) }
func (g *gatedLog) Records() ([]wal.Record, error)        { return g.inner.Records() }
func (g *gatedLog) Close() error                          { return g.inner.Close() }

func (g *gatedLog) AppendStaged(rec wal.Record, fn func(uint64, error)) {
	g.mu.Lock()
	if g.gates[rec.Type] {
		g.held = append(g.held, heldRec{rec, fn})
		g.mu.Unlock()
		return
	}
	g.mu.Unlock()
	lsn, err := g.inner.Append(rec)
	fn(lsn, err)
}

// AppendLazy stages a lazy record: gated types sit in the held buffer (the
// staged-but-unflushed window) with no callback, everything else lands
// directly.
func (g *gatedLog) AppendLazy(rec wal.Record) error {
	g.mu.Lock()
	if g.gates[rec.Type] {
		g.held = append(g.held, heldRec{rec, nil})
		g.mu.Unlock()
		return nil
	}
	g.mu.Unlock()
	_, err := g.inner.Append(rec)
	return err
}

// release makes the held batch durable and runs the callbacks, like a slow
// fsync finally completing.
func (g *gatedLog) release() {
	g.mu.Lock()
	held := g.held
	g.held = nil
	g.gates = map[wal.RecordType]bool{}
	g.mu.Unlock()
	for _, h := range held {
		lsn, err := g.inner.Append(h.rec)
		if h.fn != nil {
			h.fn(lsn, err)
		}
	}
}

// discard loses the held batch, like a crash before the fsync completed.
// The callbacks never run, and the gate lifts (the restarted site gets a
// normally-functioning log).
func (g *gatedLog) discard() {
	g.mu.Lock()
	g.held = nil
	g.gates = map[wal.RecordType]bool{}
	g.mu.Unlock()
}

// gatedTimeout is the gated cluster's protocol timeout. Its tests watch a
// held record for up to 100 ms and then assert that nothing moved, so every
// timer armed before the watch must outlast it with room for a stalled
// scheduler: at testTimeout (60 ms) a vote timer armed at Begin fired inside
// a 50 ms watch whenever the test goroutine was descheduled for 10 ms. No
// gated test waits for a timeout to fire; crashes reach the survivors
// through the oracle detector at once.
const gatedTimeout = time.Second

// gatedCluster wires three sites where site 1 runs on a gatedLog and the
// rest on plain MemoryLogs.
type gatedCluster struct {
	t     *testing.T
	net   *transport.Network
	kind  engine.ProtocolKind
	gated *gatedLog
	logs  map[int]wal.Log
	res   map[int]*testResource
	sites map[int]*engine.Site
}

func newGatedCluster(t *testing.T, kind engine.ProtocolKind, gate ...wal.RecordType) *gatedCluster {
	t.Helper()
	c := &gatedCluster{
		t:     t,
		net:   transport.NewNetwork(),
		kind:  kind,
		gated: newGatedLog(gate...),
		logs:  map[int]wal.Log{},
		res:   map[int]*testResource{},
		sites: map[int]*engine.Site{},
	}
	for i := 1; i <= 3; i++ {
		if i == 1 {
			c.logs[i] = c.gated
		} else {
			c.logs[i] = wal.NewMemoryLog()
		}
		c.res[i] = newTestResource()
		s, err := engine.New(engine.Config{
			ID:       i,
			Endpoint: c.net.Endpoint(i),
			Log:      c.logs[i],
			Resource: c.res[i],
			Detector: c.net,
			Protocol: kind,
			Timeout:  gatedTimeout,
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
	return c
}

// pollPhase polls, on the wall clock, until the site holds txid in phase.
func (c *gatedCluster) pollPhase(id int, txid, phase string) {
	c.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.sites[id].Phase(txid) == phase {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatalf("site %d tx %s: phase %s never reached (now %s)",
		id, txid, phase, c.sites[id].Phase(txid))
}

func (c *gatedCluster) expect(txid string, want engine.Outcome, siteIDs ...int) {
	c.t.Helper()
	for _, id := range siteIDs {
		got, err := c.sites[id].WaitOutcome(txid, 5*time.Second)
		if err != nil {
			c.t.Fatalf("site %d tx %s: %v", id, txid, err)
		}
		if got != want {
			c.t.Fatalf("site %d tx %s: outcome %s, want %s", id, txid, got, want)
		}
	}
}

// TestGroupCommitDefersDecision pins force-before-act at batch granularity:
// while the coordinator's commit record sits in a not-yet-durable batch, no
// COMMIT message escapes, the local resource is untouched, and waiters stay
// asleep — the participants sit in w exactly as if the fsync were still
// running. Releasing the batch lets everything proceed.
func TestGroupCommitDefersDecision(t *testing.T) {
	c := newGatedCluster(t, engine.TwoPhase, wal.RecCommitted)
	if _, err := c.sites[1].Begin("t1", []int{1, 2, 3}, false); err != nil {
		t.Fatal(err)
	}
	// The coordinator collects the votes and decides, but its RecCommitted
	// is gated: the participants must not learn the outcome.
	c.pollPhase(1, "t1", "c") // volatile state may advance immediately
	time.Sleep(100 * time.Millisecond)
	for _, id := range []int{2, 3} {
		if ph := c.sites[id].Phase("t1"); ph != "w" {
			t.Fatalf("site %d reached %q while the commit record was not durable", id, ph)
		}
	}
	if c.res[1].didCommit("t1") {
		t.Fatal("coordinator resource committed before the record was durable")
	}
	if o, err := c.sites[1].Outcome("t1"); err != nil || o != engine.OutcomeCommitted {
		// Volatile phase is c; Outcome may report it, that is fine — but it
		// must not error.
		if err != nil {
			t.Fatalf("coordinator outcome: %v", err)
		}
		_ = o
	}

	c.gated.release()
	c.expect("t1", engine.OutcomeCommitted, 1, 2, 3)
	if !c.res[1].didCommit("t1") {
		t.Fatal("coordinator resource did not commit after release")
	}
}

// TestGroupCommitCrashMidBatch3PC loses the coordinator's staged commit
// record mid-batch (crash before the fsync) after the cohort prepared: no
// site may have acted on the non-durable record, so the termination
// protocol decides from p — and the recovered coordinator, whose log ends
// at prepared, resolves the same way. One consistent outcome everywhere.
func TestGroupCommitCrashMidBatch3PC(t *testing.T) {
	c := newGatedCluster(t, engine.ThreePhase, wal.RecCommitted)
	if _, err := c.sites[1].Begin("t1", []int{1, 2, 3}, false); err != nil {
		t.Fatal(err)
	}
	c.pollPhase(2, "t1", "p")
	c.pollPhase(3, "t1", "p")
	c.pollPhase(1, "t1", "c") // decided in volatile state only
	if c.res[1].didCommit("t1") {
		t.Fatal("resource acted on a non-durable commit record")
	}

	// Crash before the batch reaches disk: the staged record is lost.
	c.gated.discard()
	c.net.Crash(1)
	c.sites[1].Stop()

	// Participants are in p; the backup coordinator commits from p.
	c.expect("t1", engine.OutcomeCommitted, 2, 3)

	// The coordinator's log ends at prepared: recovery is in doubt, asks
	// the cohort, and lands on the same outcome.
	c.res[1] = newTestResource()
	s, err := engine.Recover(engine.Config{
		ID:       1,
		Endpoint: c.net.Endpoint(1),
		Log:      c.logs[1],
		Resource: c.res[1],
		Detector: c.net,
		Protocol: engine.ThreePhase,
		Timeout:  gatedTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.sites[1] = s
	c.expect("t1", engine.OutcomeCommitted, 1)
	if !c.res[1].didCommit("t1") {
		t.Fatal("recovered coordinator did not apply the redo image")
	}
}

// TestGroupCommitCrashMidBatchBeforePrepare loses the coordinator's staged
// prepared record: the PREPAREs deferred behind it never escaped, the
// participants are still in w, and termination must abort — again one
// consistent outcome, the opposite one.
func TestGroupCommitCrashMidBatchBeforePrepare(t *testing.T) {
	c := newGatedCluster(t, engine.ThreePhase, wal.RecPrepared)
	if _, err := c.sites[1].Begin("t1", []int{1, 2, 3}, false); err != nil {
		t.Fatal(err)
	}
	c.pollPhase(2, "t1", "w")
	c.pollPhase(3, "t1", "w")
	// Give the coordinator time to collect votes and stage its prepared
	// record; the PREPAREs must stay behind the gate.
	time.Sleep(50 * time.Millisecond)
	for _, id := range []int{2, 3} {
		if ph := c.sites[id].Phase("t1"); ph != "w" {
			t.Fatalf("site %d reached %q behind a non-durable prepared record", id, ph)
		}
	}

	c.gated.discard()
	c.net.Crash(1)
	c.sites[1].Stop()
	c.expect("t1", engine.OutcomeAborted, 2, 3)

	c.res[1] = newTestResource()
	s, err := engine.Recover(engine.Config{
		ID:       1,
		Endpoint: c.net.Endpoint(1),
		Log:      c.logs[1],
		Resource: c.res[1],
		Detector: c.net,
		Protocol: engine.ThreePhase,
		Timeout:  gatedTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.sites[1] = s
	c.expect("t1", engine.OutcomeAborted, 1)
	if c.res[1].didCommit("t1") {
		t.Fatal("recovered coordinator committed an aborted transaction")
	}
}

// TestGroupCommitVoteReqWaitsForBeginRecord: with the begin record gated,
// no VOTE-REQ escapes under 3PC — were the coordinator to crash, the cohort
// must never have heard of a transaction its recovered log does not know.
// (Presumed-abort 2PC no longer forces the begin record at all; see
// TestGroupCommitPresumedAbortBeginIsLazy.)
func TestGroupCommitVoteReqWaitsForBeginRecord(t *testing.T) {
	c := newGatedCluster(t, engine.ThreePhase, wal.RecBegin)
	if _, err := c.sites[1].Begin("t1", []int{1, 2, 3}, false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	for _, id := range []int{2, 3} {
		if ph := c.sites[id].Phase("t1"); ph != "?" {
			t.Fatalf("site %d heard of t1 (phase %q) before the begin record was durable", id, ph)
		}
	}
	c.gated.release()
	c.expect("t1", engine.OutcomeCommitted, 1, 2, 3)
}

// TestGroupCommitPresumedAbortBeginIsLazy: under presumed-abort 2PC the
// begin record is a lazy append. VOTE-REQs go out without waiting for it,
// and the decision depends only on the forced commit record: the whole
// transaction commits while the begin record is still held in the staging
// buffer.
func TestGroupCommitPresumedAbortBeginIsLazy(t *testing.T) {
	c := newGatedCluster(t, engine.TwoPhase, wal.RecBegin)
	if _, err := c.sites[1].Begin("t1", []int{1, 2, 3}, false); err != nil {
		t.Fatal(err)
	}
	c.expect("t1", engine.OutcomeCommitted, 1, 2, 3)
	recs, err := c.gated.inner.Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Type == wal.RecBegin {
			t.Fatal("begin record reached the log while gated: it was forced, not lazy")
		}
	}
	c.gated.release()
}

// TestOnePhaseCrashWindow: a cohort of one commits in one phase under every
// family, staging exactly one forced record, RecCommitted with the redo
// image. A crash while it is staged but not durable recovers with no trace
// of the transaction, and the handle's Wait never said committed. A crash after
// it is durable recovers the transaction committed, with the redo applied.
func TestOnePhaseCrashWindow(t *testing.T) {
	for _, kind := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase, engine.PaxosCommit} {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/durable=%v", kind, durable), func(t *testing.T) {
				c := newGatedCluster(t, kind, wal.RecCommitted)
				waited := make(chan engine.Outcome, 1)
				h, err := c.sites[1].Begin("t1", []int{1}, false)
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					o, _ := h.Wait(5 * time.Second)
					waited <- o
				}()
				c.pollPhase(1, "t1", "c") // decided in volatile state only
				select {
				case o := <-waited:
					t.Fatalf("Wait returned %s before the commit record was durable", o)
				case <-time.After(50 * time.Millisecond):
				}
				if c.res[1].didCommit("t1") {
					t.Fatal("resource committed before the record was durable")
				}
				if durable {
					c.gated.release()
					if o := <-waited; o != engine.OutcomeCommitted {
						t.Fatalf("Wait = %s after the record was durable", o)
					}
				} else {
					c.gated.discard()
				}
				c.net.Crash(1)
				c.sites[1].Stop()
				if !durable {
					if o := <-waited; o == engine.OutcomeCommitted {
						t.Fatal("Wait reported a commit whose record was lost")
					}
				}

				recs, err := c.gated.inner.Records()
				if err != nil {
					t.Fatal(err)
				}
				want := "[]"
				if durable {
					want = "[committed t1 redo:t1]"
				}
				var got []string
				for _, r := range recs {
					got = append(got, fmt.Sprintf("%s %s %s", r.Type, r.TxID, r.Payload))
				}
				if fmt.Sprint(got) != want {
					t.Fatalf("log holds %v, want %s", got, want)
				}

				c.res[1] = newTestResource()
				s, err := engine.Recover(engine.Config{
					ID:       1,
					Endpoint: c.net.Endpoint(1),
					Log:      c.logs[1],
					Resource: c.res[1],
					Detector: c.net,
					Protocol: kind,
					Timeout:  gatedTimeout,
				})
				if err != nil {
					t.Fatal(err)
				}
				c.sites[1] = s
				if !durable {
					if ph := s.Phase("t1"); ph != "?" {
						t.Fatalf("recovered site knows t1 (phase %s) though nothing reached the log", ph)
					}
					return
				}
				c.expect("t1", engine.OutcomeCommitted, 1)
				if !c.res[1].didCommit("t1") {
					t.Fatal("recovery did not apply the redo image")
				}
			})
		}
	}
}

// TestEnginePipelinesOverFileLog runs many concurrent transactions over a
// real group-committing file log with sync enabled: all must commit, and
// the per-site logs must show coalesced batches (more than one record per
// fsync), proving the event loop keeps staging while a flush is in flight.
func TestEnginePipelinesOverFileLog(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewNetwork()
	var batchMu sync.Mutex
	maxBatch := 0
	sites := map[int]*engine.Site{}
	for i := 1; i <= 3; i++ {
		l, err := wal.OpenFileLog(filepath.Join(dir, fmt.Sprintf("site%d.wal", i)), wal.FileLogOptions{
			Metrics: wal.Metrics{BatchRecords: func(n int) {
				batchMu.Lock()
				if n > maxBatch {
					maxBatch = n
				}
				batchMu.Unlock()
			}},
			// A small window guarantees coalescing even on hardware where
			// the fsync itself is too fast to build a backlog.
			FlushInterval: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		s, err := engine.New(engine.Config{
			ID:       i,
			Endpoint: net.Endpoint(i),
			Log:      l,
			Resource: newTestResource(),
			Detector: net,
			Protocol: engine.ThreePhase,
			Timeout:  500 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = s
		s.Start()
		defer s.Stop()
	}

	const clients, perClient = 16, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				txid := fmt.Sprintf("t-%d-%d", cl, i)
				h, err := sites[1].Begin(txid, []int{1, 2, 3}, false)
				if err != nil {
					errs <- err
					return
				}
				o, err := h.Wait(10 * time.Second)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", txid, err)
					return
				}
				if o != engine.OutcomeCommitted {
					errs <- fmt.Errorf("%s: outcome %s", txid, o)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	batchMu.Lock()
	defer batchMu.Unlock()
	if maxBatch < 2 {
		t.Fatalf("no batch held more than one record (max %d); group commit did not coalesce", maxBatch)
	}
}
