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
	select {
	case <-Wall.After(time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("wall After never fired")
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

func TestVirtualAfterChannel(t *testing.T) {
	v := NewVirtual()
	ch := v.After(3 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("virtual After fired before advancing")
	default:
	}
	v.Advance(5 * time.Millisecond)
	select {
	case at := <-ch:
		if at != NewVirtual().Now().Add(3*time.Millisecond) {
			t.Fatalf("fired at %v", at)
		}
	default:
		t.Fatal("virtual After did not fire after advancing")
	}
}
