package clock

import (
	"testing"
	"time"
)

func TestWallBasics(t *testing.T) {
	before := time.Now()
	if Wall.Now().Before(before) {
		t.Fatal("wall clock went backwards")
	}
	fired := make(chan struct{})
	tm := Wall.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("wall AfterFunc never fired")
	}
	if tm.Stop() {
		t.Fatal("Stop after firing should report false")
	}
	fired = make(chan struct{})
	tm = Wall.AfterFunc(time.Hour, func() { close(fired) })
	if !tm.Reset(time.Millisecond) {
		t.Fatal("Reset of a pending timer should report true")
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("wall timer never fired after Reset")
	}
}

func TestVirtualStepOrder(t *testing.T) {
	v := NewVirtual()
	var order []int
	v.AfterFunc(20*time.Millisecond, func() { order = append(order, 2) })
	v.AfterFunc(10*time.Millisecond, func() { order = append(order, 1) })
	v.AfterFunc(20*time.Millisecond, func() { order = append(order, 3) }) // same deadline: fires after seq-earlier
	start := v.Now()

	if v.pending() != 3 {
		t.Fatalf("pending = %d", v.pending())
	}
	dl, ok := v.NextDeadline()
	if !ok || dl != start.Add(10*time.Millisecond) {
		t.Fatalf("next deadline = %v, %v", dl, ok)
	}
	for v.Step() {
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v", order)
	}
	if got := v.Now().Sub(start); got != 20*time.Millisecond {
		t.Fatalf("clock advanced %v", got)
	}
	if v.Step() {
		t.Fatal("Step with no timers should report false")
	}
}

func TestVirtualStop(t *testing.T) {
	v := NewVirtual()
	fired := false
	tm := v.AfterFunc(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	if v.Step() || fired {
		t.Fatal("stopped timer fired")
	}
}

// Timers armed for the same instant fire in the order they were armed when
// one Advance reaches that instant.
func TestVirtualSameDeadlineFiresInArmOrder(t *testing.T) {
	v := NewVirtual()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		v.AfterFunc(30*time.Millisecond, func() { order = append(order, i) })
	}
	v.Advance(30 * time.Millisecond)
	if len(order) != 5 {
		t.Fatalf("fired %v, want all five", order)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("fire order = %v, want arm order", order)
		}
	}
}

// A stopped timer never fires, however far the clock is advanced.
func TestVirtualStopCancels(t *testing.T) {
	v := NewVirtual()
	fired := false
	tm := v.AfterFunc(30*time.Millisecond, func() { fired = true })
	if v.pending() != 1 {
		t.Fatalf("pending = %d, want 1", v.pending())
	}
	if !tm.Stop() {
		t.Fatal("Stop of a pending timer should report true")
	}
	if v.pending() != 0 {
		t.Fatalf("pending = %d after Stop, want 0", v.pending())
	}
	v.Advance(time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Stop() {
		t.Fatal("Stop after Advance should report false")
	}
}

func TestVirtualAdvanceCascade(t *testing.T) {
	v := NewVirtual()
	var order []string
	v.AfterFunc(10*time.Millisecond, func() {
		order = append(order, "a")
		// Rearmed within the window: must also fire during the same Advance.
		v.AfterFunc(5*time.Millisecond, func() { order = append(order, "b") })
		// Beyond the window: must stay pending.
		v.AfterFunc(time.Hour, func() { order = append(order, "late") })
	})
	v.Advance(20 * time.Millisecond)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
	if v.pending() != 1 {
		t.Fatalf("pending = %d", v.pending())
	}
	start := NewVirtual().Now()
	if got := v.Now().Sub(start); got != 20*time.Millisecond {
		t.Fatalf("advanced %v", got)
	}
}

// Reset moves a pending timer's deadline and gives it a fresh tie position:
// it fires after a timer already scheduled for the same instant.
func TestVirtualResetMovesDeadline(t *testing.T) {
	v := NewVirtual()
	start := v.Now()
	var order []string
	a := v.AfterFunc(5*time.Millisecond, func() { order = append(order, "a") })
	v.AfterFunc(10*time.Millisecond, func() { order = append(order, "b") })
	if !a.Reset(10 * time.Millisecond) {
		t.Fatal("Reset of a pending timer should report true")
	}
	if dl, ok := v.NextDeadline(); !ok || dl != start.Add(10*time.Millisecond) {
		t.Fatalf("next deadline = %v, %v; want the moved deadline", dl, ok)
	}
	v.Advance(9 * time.Millisecond)
	if len(order) != 0 {
		t.Fatalf("fired before the moved deadline: %v", order)
	}
	v.Advance(time.Millisecond)
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("fire order = %v, want [b a]", order)
	}
	if a.Reset(time.Millisecond) {
		t.Fatal("Reset of a fired timer should report false")
	}
	v.Advance(time.Millisecond)
	if len(order) != 3 || order[2] != "a" {
		t.Fatalf("fired timer did not fire again after Reset: %v", order)
	}
}

func TestVirtualStopThenResetFiresOnce(t *testing.T) {
	v := NewVirtual()
	fired := 0
	tm := v.AfterFunc(time.Millisecond, func() { fired++ })
	tm.Stop()
	if tm.Reset(2 * time.Millisecond) {
		t.Fatal("Reset of a stopped timer should report false")
	}
	if v.pending() != 1 {
		t.Fatalf("pending = %d, want 1", v.pending())
	}
	v.Advance(time.Hour)
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
}

func TestVirtualStoppedTimerLeavesNextDeadline(t *testing.T) {
	v := NewVirtual()
	start := v.Now()
	early := v.AfterFunc(time.Millisecond, func() {})
	v.AfterFunc(time.Second, func() {})
	early.Stop()
	if dl, ok := v.NextDeadline(); !ok || dl != start.Add(time.Second) {
		t.Fatalf("next deadline = %v, %v; want the live timer's", dl, ok)
	}
	if v.pending() != 1 {
		t.Fatalf("pending = %d, want 1", v.pending())
	}
}
