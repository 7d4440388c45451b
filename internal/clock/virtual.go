package clock

import (
	"sync"
	"time"
)

// Virtual is a simulated clock: time stands still until the owner advances
// it, and timers fire in a deterministic order — earliest deadline first,
// ties broken by scheduling order. Callbacks run on the goroutine that
// advances the clock, never concurrently, which is what lets a simulation
// driver interleave timer fires with message deliveries reproducibly.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers []*vtimer // pending, unordered; earliest picks the next to fire
}

// NewVirtual returns a virtual clock starting at a fixed epoch, so that two
// simulations from the same seed read identical times.
func NewVirtual() *Virtual {
	return &Virtual{now: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)}
}

type vtimer struct {
	clk  *Virtual
	when time.Time
	seq  uint64
	f    func()
	idx  int // position in clk.timers; -1 when not pending
}

// Stop implements Timer.
func (t *vtimer) Stop() bool {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	return t.clk.remove(t)
}

// Reset implements Timer. The timer takes a fresh scheduling position: it
// fires after every other timer due at the same instant that is already
// scheduled.
func (t *vtimer) Reset(d time.Duration) bool {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	pending := t.clk.remove(t)
	t.clk.schedule(t, d)
	return pending
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// AfterFunc implements Clock. A non-positive duration schedules the callback
// for the current instant; it still fires only on the next Step or Advance.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	t := &vtimer{clk: v, f: f}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.schedule(t, d)
	return t
}

// schedule makes t pending d from now under the next sequence number.
// Requires v.mu held and t not pending.
func (v *Virtual) schedule(t *vtimer, d time.Duration) {
	if d < 0 {
		d = 0
	}
	v.seq++
	t.when, t.seq, t.idx = v.now.Add(d), v.seq, len(v.timers)
	v.timers = append(v.timers, t)
}

// remove takes t off the pending list, reporting whether it was on it.
// Requires v.mu held.
func (v *Virtual) remove(t *vtimer) bool {
	i := t.idx
	if i < 0 {
		return false
	}
	last := len(v.timers) - 1
	v.timers[i] = v.timers[last]
	v.timers[i].idx = i
	v.timers[last] = nil
	v.timers = v.timers[:last]
	t.idx = -1
	return true
}

// earliest returns the pending timer that fires next — earliest deadline,
// ties to the lowest sequence number — or nil if none is pending. Requires
// v.mu held.
func (v *Virtual) earliest() *vtimer {
	var best *vtimer
	for _, t := range v.timers {
		if best == nil || t.when.Before(best.when) ||
			(t.when.Equal(best.when) && t.seq < best.seq) {
			best = t
		}
	}
	return best
}

// pending reports the number of timers still scheduled.
func (v *Virtual) pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.timers)
}

// NextDeadline returns the earliest pending timer deadline.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t := v.earliest(); t != nil {
		return t.when, true
	}
	return time.Time{}, false
}

// fireNext fires the earliest pending timer, moving the clock to its
// deadline, and reports whether one fired. A non-zero limit leaves a timer
// due after it pending. The callback runs with no clock lock held, so it may
// schedule, reset or stop timers.
func (v *Virtual) fireNext(limit time.Time) bool {
	v.mu.Lock()
	t := v.earliest()
	if t == nil || (!limit.IsZero() && t.when.After(limit)) {
		v.mu.Unlock()
		return false
	}
	v.remove(t)
	v.now = t.when // never earlier: every pending deadline is at or after now
	v.mu.Unlock()
	t.f()
	return true
}

// Step advances the clock to the earliest pending timer and fires it,
// reporting whether a timer fired.
func (v *Virtual) Step() bool { return v.fireNext(time.Time{}) }

// Advance moves the clock forward by d, firing every timer that becomes due
// (in deadline order) along the way; timers scheduled by fired callbacks
// fire too if they fall within the window.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.now.Add(d)
	v.mu.Unlock()
	for v.fireNext(target) {
	}
	v.mu.Lock()
	if target.After(v.now) {
		v.now = target
	}
	v.mu.Unlock()
}
