package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.At(10, func() { order = append(order, 11) }) // same time: FIFO
	s.Run(0)
	if len(order) != 4 || order[0] != 1 || order[1] != 11 || order[2] != 2 || order[3] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %d", s.Now())
	}
}

func TestAfterAndRunUntil(t *testing.T) {
	s := New(1)
	fired := 0
	s.After(100, func() {
		fired++
		s.After(100, func() { fired++ })
	})
	s.RunUntil(150)
	if fired != 1 {
		t.Fatalf("fired = %d at t=150", fired)
	}
	if s.Now() != 150 {
		t.Fatalf("Now = %d", s.Now())
	}
	s.RunUntil(300)
	if fired != 2 {
		t.Fatalf("fired = %d at t=300", fired)
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	s := New(1)
	s.At(100, func() {
		s.At(50, func() {
			if s.Now() != 100 {
				t.Errorf("past event ran at %d", s.Now())
			}
		})
	})
	s.Run(0)
}

func TestRunStepLimit(t *testing.T) {
	s := New(1)
	count := 0
	var loop func()
	loop = func() { count++; s.After(1, loop) }
	s.After(1, loop)
	if steps := s.Run(10); steps != 10 || count != 10 {
		t.Fatalf("steps=%d count=%d", steps, count)
	}
}

func TestUniformBounds(t *testing.T) {
	s := New(42)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(10, 20)
		if v < 10 || v > 20 {
			t.Fatalf("Uniform out of range: %d", v)
		}
	}
	if s.Uniform(5, 5) != 5 {
		t.Fatal("degenerate range")
	}
}

func TestNetDeliveryAndCounters(t *testing.T) {
	s := New(7)
	n := NewNet(s, 10, 10, 5)
	var got []Msg
	n.Handle(2, func(m Msg) { got = append(got, m) })
	n.Send(Msg{From: 1, To: 2, Kind: "X"})
	s.Run(0)
	if len(got) != 1 || got[0].Kind != "X" {
		t.Fatalf("got %v", got)
	}
	if n.Sent != 1 || n.ByKind["X"] != 1 {
		t.Fatalf("counters: %d %v", n.Sent, n.ByKind)
	}
}

func TestNetCrashStopsDeliveryAndNotifies(t *testing.T) {
	s := New(7)
	n := NewNet(s, 10, 10, 5)
	delivered := false
	n.Handle(2, func(Msg) { delivered = true })
	n.Handle(1, func(Msg) {})
	notified := []int{}
	n.WatchSuspicions(func(observer, suspect int) {
		if observer == 1 {
			notified = append(notified, suspect)
		}
	})

	n.Send(Msg{From: 1, To: 2, Kind: "X"}) // in flight at crash time
	s.At(5, func() { n.Crash(2) })
	s.Run(0)
	if delivered {
		t.Fatal("message delivered to crashed site")
	}
	if len(notified) != 1 || notified[0] != 2 {
		t.Fatalf("notifications: %v", notified)
	}
	if n.Alive(2) || !n.Alive(1) {
		t.Fatal("alive state wrong")
	}
	// Crashed senders transmit nothing.
	before := n.Sent
	n.Send(Msg{From: 2, To: 1, Kind: "X"})
	if n.Sent != before {
		t.Fatal("crashed site sent a message")
	}
}

// sweepStats summarizes a crash sweep.
type sweepStats struct {
	trials, blocked, inconsistent, undecided int
}

// crashSweep runs trials transactions, each under the crash schedule crash
// draws, and counts the runs in which an operational site blocked, two
// sites decided differently, or no operational site decided.
func crashSweep(proto Protocol, n, trials int, seed int64, crash func(*rand.Rand) map[int]Time) sweepStats {
	rng := rand.New(rand.NewSource(seed))
	st := sweepStats{trials: trials}
	for i := 0; i < trials; i++ {
		at := crash(rng)
		res := RunTransaction(Config{N: n, Protocol: proto, Seed: rng.Int63(), CrashAt: at})
		if res.Blocked {
			st.blocked++
		}
		if !res.Consistent {
			st.inconsistent++
		}
		if !res.Committed && !res.Aborted {
			st.undecided++
		}
	}
	return st
}

// randomCrashes crashes k distinct random sites of n, each at a time drawn
// uniformly from [0, window].
func randomCrashes(n, k int, window Time) func(*rand.Rand) map[int]Time {
	return func(rng *rand.Rand) map[int]Time {
		at := map[int]Time{}
		for _, i := range rng.Perm(n)[:k] {
			at[i+1] = Time(rng.Int63n(int64(window) + 1))
		}
		return at
	}
}

func TestFailureFreeCommitAllProtocols(t *testing.T) {
	for _, proto := range []Protocol{Central3PC, Quorum3PC} {
		for _, n := range []int{2, 3, 5, 9} {
			res := RunTransaction(Config{N: n, Protocol: proto, Seed: 42})
			if !res.Committed || res.Aborted {
				t.Errorf("%s n=%d: committed=%v aborted=%v", proto, n, res.Committed, res.Aborted)
			}
			if !res.Consistent || res.Blocked {
				t.Errorf("%s n=%d: consistent=%v blocked=%v", proto, n, res.Consistent, res.Blocked)
			}
			if res.Done == 0 {
				t.Errorf("%s n=%d: not all sites decided", proto, n)
			}
			for id, so := range res.Sites {
				if so.Phase != 'c' {
					t.Errorf("%s n=%d site %d phase %c", proto, n, id, so.Phase)
				}
			}
		}
	}
}

func TestUnilateralAbortAllProtocols(t *testing.T) {
	for _, proto := range []Protocol{Central3PC, Quorum3PC} {
		res := RunTransaction(Config{
			N: 4, Protocol: proto, Seed: 9,
			VoteNo: map[int]bool{3: true},
		})
		if !res.Aborted || res.Committed || !res.Consistent {
			t.Errorf("%s: aborted=%v committed=%v consistent=%v",
				proto, res.Aborted, res.Committed, res.Consistent)
		}
	}
}

func TestMessageComplexityShape(t *testing.T) {
	// Failure-free central 3PC is linear in n: five rounds of one message
	// per slave (XACT, vote, PREPARE, ACK, COMMIT).
	for _, n := range []int{2, 3, 5, 9} {
		if got := RunTransaction(Config{N: n, Protocol: Central3PC, Seed: 1}).Messages; got != 5*(n-1) {
			t.Errorf("n=%d: central 3PC messages = %d, want %d", n, got, 5*(n-1))
		}
	}
}

func TestLatencyShape(t *testing.T) {
	// Failure-free central 3PC takes five sequential message delays (XACT,
	// vote, PREPARE, ACK, COMMIT), plus the stagger of its three
	// broadcasts.
	for _, n := range []int{2, 3, 5, 9} {
		res := RunTransaction(Config{N: n, Protocol: Central3PC, Seed: 1, LatencyMin: Millisecond, LatencyMax: Millisecond})
		stagger := 3 * Time(n-2) * 20 * Microsecond
		if res.Done != 5*Millisecond+stagger {
			t.Errorf("n=%d: central 3PC done at %d, want %d", n, res.Done, 5*Millisecond+stagger)
		}
	}
}

// TestThreePCNeverBlocks sweeps the coordinator crash time over the whole
// protocol window: 3PC terminates every time.
func TestThreePCNeverBlocks(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		stats := crashSweep(Central3PC, n, 400, 11, func(rng *rand.Rand) map[int]Time {
			return map[int]Time{1: Time(rng.Int63n(int64(20*Millisecond) + 1))}
		})
		if stats.blocked != 0 {
			t.Errorf("n=%d: 3PC blocked in %d/%d trials", n, stats.blocked, stats.trials)
		}
		if stats.inconsistent != 0 {
			t.Errorf("n=%d: %d inconsistent trials", n, stats.inconsistent)
		}
		if stats.undecided != 0 {
			t.Errorf("n=%d: %d undecided trials", n, stats.undecided)
		}
	}
}

// TestMultipleFailures3PC: 3PC stays live and consistent with up to n-1
// crashes ("as long as one site remains operational").
func TestMultipleFailures3PC(t *testing.T) {
	for k := 1; k <= 3; k++ {
		stats := crashSweep(Central3PC, 4, 300, 31, randomCrashes(4, k, 15*Millisecond))
		if stats.inconsistent != 0 {
			t.Errorf("k=%d: %d inconsistent", k, stats.inconsistent)
		}
		if stats.blocked != 0 {
			t.Errorf("k=%d: %d blocked", k, stats.blocked)
		}
		if stats.undecided != 0 {
			t.Errorf("k=%d: %d undecided", k, stats.undecided)
		}
	}
}

// TestBackupPhase1Ablation: skipping phase 1 of the backup protocol breaks
// safety — "Phase 1 ... is required because the backup coordinator may
// fail" (slide 39). Deterministic schedule (fixed 1ms latency, 2ms message
// stagger, 5ms crash detection):
//
//	t=0     coordinator sends XACT to 2/3/4 at 0/2/4ms; votes return
//	t=6ms   coordinator enters p, sends PREPARE to 2 (6ms) and 3 (8ms)
//	t=9ms   coordinator crashes before PREPARE reaches 4 → 4 stays in w
//	t=14ms  crash detected; backup = site 2, in p
//	        - without phase 1: 2 commits, sends COMMIT to 3 (14ms), crashes
//	          at 15ms before sending to 4; 3 commits at 15ms, crashes at
//	          15.5ms; survivor 4 (in w) elects itself and ABORTS at ~20ms —
//	          mixed with the durable commits at 2 and 3: INCONSISTENT.
//	        - with phase 1: 2 first synchronizes 4 to p; it crashes before
//	          any COMMIT exists, so no site commits and 4's abort is
//	          consistent.
func TestBackupPhase1Ablation(t *testing.T) {
	cfg := Config{
		N: 4, Protocol: Central3PC, Seed: 7,
		LatencyMin: Millisecond, LatencyMax: Millisecond,
		Stagger: 2 * Millisecond,
		CrashAt: map[int]Time{
			1: 9 * Millisecond,
			2: 15 * Millisecond,
			3: 15*Millisecond + 500*Microsecond,
		},
	}
	withPhase1 := RunTransaction(cfg)
	if !withPhase1.Consistent {
		t.Fatalf("phase 1 enabled but inconsistent: %+v", withPhase1.Sites)
	}
	if withPhase1.Sites[4].Crashed || withPhase1.Sites[4].DecidedAt == 0 {
		t.Fatalf("survivor did not terminate with phase 1: %+v", withPhase1.Sites[4])
	}

	cfg.SkipBackupPhase1 = true
	without := RunTransaction(cfg)
	if without.Consistent {
		t.Fatalf("ablation stayed consistent; schedule missed the window: %+v", without.Sites)
	}
	if !without.Committed || !without.Aborted {
		t.Fatalf("expected mixed outcomes, got %+v", without.Sites)
	}
}

// TestQuickConsistency is the property test: under arbitrary crash
// schedules and vote patterns, neither protocol ever produces mixed
// outcomes.
func TestQuickConsistency(t *testing.T) {
	f := func(seed int64, crashRaw []uint16, votes uint8, protoRaw uint8, nRaw uint8) bool {
		n := 2 + int(nRaw%6)
		proto := Protocol(protoRaw % 2)
		crash := map[int]Time{}
		for i, c := range crashRaw {
			if i >= n-1 { // always leave site n alive
				break
			}
			crash[i+1] = Time(c) * 50 * Microsecond
		}
		voteNo := map[int]bool{}
		for i := 0; i < n; i++ {
			if votes&(1<<uint(i%8)) != 0 && i%2 == 0 {
				voteNo[i+1] = true
			}
		}
		res := RunTransaction(Config{
			N: n, Protocol: proto, Seed: seed,
			CrashAt: crash, VoteNo: voteNo,
		})
		return res.Consistent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
