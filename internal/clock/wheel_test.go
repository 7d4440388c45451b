package clock

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fireLog collects wheel expiries for assertions.
type fireLog struct {
	mu    sync.Mutex
	fired []string
}

func (l *fireLog) fn(key string, gen uint64) {
	l.mu.Lock()
	l.fired = append(l.fired, fmt.Sprintf("%s/%d", key, gen))
	l.mu.Unlock()
}

func (l *fireLog) got() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.fired...)
}

func TestWheelFiresAtExactDeadline(t *testing.T) {
	clk := NewVirtual()
	var log fireLog
	w := NewWheel(clk, 10*time.Millisecond, log.fn)

	w.Schedule(25*time.Millisecond, "a", 1)
	clk.Advance(24 * time.Millisecond)
	if got := log.got(); len(got) != 0 {
		t.Fatalf("fired early: %v", got)
	}
	clk.Advance(time.Millisecond)
	if got := log.got(); len(got) != 1 || got[0] != "a/1" {
		t.Fatalf("want [a/1], got %v", got)
	}
	if n := w.Len(); n != 0 {
		t.Fatalf("Len after fire = %d, want 0", n)
	}
}

func TestWheelStopCancels(t *testing.T) {
	clk := NewVirtual()
	var log fireLog
	w := NewWheel(clk, 10*time.Millisecond, log.fn)

	h := w.Schedule(30*time.Millisecond, "a", 1)
	if !h.Armed() {
		t.Fatal("freshly scheduled timer not armed")
	}
	if !h.Stop() {
		t.Fatal("Stop of pending timer returned false")
	}
	if h.Armed() {
		t.Fatal("stopped timer still armed")
	}
	if h.Stop() {
		t.Fatal("second Stop returned true")
	}
	clk.Advance(time.Second)
	if got := log.got(); len(got) != 0 {
		t.Fatalf("cancelled timer fired: %v", got)
	}
}

// A handle from a previous arm must not cancel a node that was recycled into
// a new timer (the epoch check).
func TestWheelStaleHandleEpoch(t *testing.T) {
	clk := NewVirtual()
	var log fireLog
	w := NewWheel(clk, 10*time.Millisecond, log.fn)

	old := w.Schedule(10*time.Millisecond, "a", 1)
	old.Stop() // node recycled
	// The freelist reuses the node for the next Schedule.
	w.Schedule(20*time.Millisecond, "b", 7)
	if old.Stop() {
		t.Fatal("stale handle cancelled a recycled node")
	}
	if old.Armed() {
		t.Fatal("stale handle reports armed")
	}
	clk.Advance(time.Second)
	if got := log.got(); len(got) != 1 || got[0] != "b/7" {
		t.Fatalf("want [b/7], got %v", got)
	}
}

func TestWheelRearmKeepsLatestGeneration(t *testing.T) {
	clk := NewVirtual()
	var log fireLog
	w := NewWheel(clk, 10*time.Millisecond, log.fn)

	h := w.Schedule(50*time.Millisecond, "tx", 1)
	h.Stop()
	w.Schedule(20*time.Millisecond, "tx", 2)
	clk.Advance(time.Second)
	if got := log.got(); len(got) != 1 || got[0] != "tx/2" {
		t.Fatalf("want [tx/2], got %v", got)
	}
}

func TestWheelSameDeadlineFiresInArmOrder(t *testing.T) {
	clk := NewVirtual()
	var log fireLog
	w := NewWheel(clk, 10*time.Millisecond, log.fn)

	for i := 0; i < 5; i++ {
		w.Schedule(30*time.Millisecond, fmt.Sprintf("k%d", i), 1)
	}
	clk.Advance(30 * time.Millisecond)
	want := []string{"k0/1", "k1/1", "k2/1", "k3/1", "k4/1"}
	got := log.got()
	if len(got) != len(want) {
		t.Fatalf("want %v, got %v", want, got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("want %v, got %v", want, got)
		}
	}
}

// Deadlines far beyond level 0 must cascade down and still fire exactly.
func TestWheelCascade(t *testing.T) {
	clk := NewVirtual()
	var log fireLog
	w := NewWheel(clk, time.Millisecond, log.fn)

	// Level 1 (64..4095 ticks), level 2 (4096..262143 ticks), overflow.
	durations := []time.Duration{
		100 * time.Millisecond,
		5 * time.Second,
		300 * time.Second,
		time.Duration(wheelSpan+10) * time.Millisecond, // overflow list
	}
	for i, d := range durations {
		w.Schedule(d, fmt.Sprintf("d%d", i), uint64(i))
	}
	if n := w.Len(); n != len(durations) {
		t.Fatalf("Len = %d, want %d", n, len(durations))
	}
	start := clk.Now()
	for i, d := range durations {
		key := fmt.Sprintf("d%d/%d", i, i)
		clk.Advance(start.Add(d - time.Millisecond).Sub(clk.Now()))
		for _, f := range log.got() {
			if f == key {
				t.Fatalf("%s fired before its deadline", key)
			}
		}
		clk.Advance(time.Millisecond)
		found := false
		for _, f := range log.got() {
			if f == key {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s did not fire at its deadline (fired: %v)", key, log.got())
		}
	}
	if n := w.Len(); n != 0 {
		t.Fatalf("Len after all fires = %d, want 0", n)
	}
}

func TestWheelStopWheel(t *testing.T) {
	clk := NewVirtual()
	var log fireLog
	w := NewWheel(clk, 10*time.Millisecond, log.fn)

	w.Schedule(20*time.Millisecond, "a", 1)
	w.Stop()
	if h := w.Schedule(10*time.Millisecond, "b", 1); h.Armed() {
		t.Fatal("Schedule on a stopped wheel returned an armed handle")
	}
	clk.Advance(time.Second)
	if got := log.got(); len(got) != 0 {
		t.Fatalf("stopped wheel fired: %v", got)
	}
	if clk.pending() != 0 {
		t.Fatalf("stopped wheel left %d virtual timers pending", clk.pending())
	}
}

func TestWheelZeroDelayFiresOnNextAdvance(t *testing.T) {
	clk := NewVirtual()
	var log fireLog
	w := NewWheel(clk, 10*time.Millisecond, log.fn)

	w.Schedule(0, "now", 3)
	clk.Step()
	if got := log.got(); len(got) != 1 || got[0] != "now/3" {
		t.Fatalf("want [now/3], got %v", got)
	}
}

// Re-arming with an earlier deadline after a later one must move the
// underlying timer up, not wait for the later fire.
func TestWheelEarlierDeadlinePreempts(t *testing.T) {
	clk := NewVirtual()
	var log fireLog
	w := NewWheel(clk, 10*time.Millisecond, log.fn)

	w.Schedule(500*time.Millisecond, "late", 1)
	w.Schedule(50*time.Millisecond, "early", 1)
	clk.Advance(50 * time.Millisecond)
	if got := log.got(); len(got) != 1 || got[0] != "early/1" {
		t.Fatalf("want [early/1] at 50ms, got %v", got)
	}
	clk.Advance(450 * time.Millisecond)
	if got := log.got(); len(got) != 2 || got[1] != "late/1" {
		t.Fatalf("want late/1 second, got %v", got)
	}
}

func TestWheelManyTimersOneUnderlying(t *testing.T) {
	clk := NewVirtual()
	var log fireLog
	w := NewWheel(clk, 10*time.Millisecond, log.fn)

	for i := 0; i < 1000; i++ {
		w.Schedule(time.Duration(i%97+1)*time.Millisecond, fmt.Sprintf("t%d", i), 1)
	}
	// The whole point of the wheel: one virtual timer regardless of load.
	if p := clk.pending(); p != 1 {
		t.Fatalf("underlying timers = %d, want 1", p)
	}
	clk.Advance(100 * time.Millisecond)
	if got := log.got(); len(got) != 1000 {
		t.Fatalf("fired %d of 1000", len(got))
	}
}

func TestWheelWallClock(t *testing.T) {
	var log fireLog
	var wg sync.WaitGroup
	wg.Add(1)
	w := NewWheel(Wall, time.Millisecond, func(key string, gen uint64) {
		log.fn(key, gen)
		wg.Done()
	})
	defer w.Stop()
	w.Schedule(5*time.Millisecond, "real", 9)
	wg.Wait()
	if got := log.got(); len(got) != 1 || got[0] != "real/9" {
		t.Fatalf("want [real/9], got %v", got)
	}
}
