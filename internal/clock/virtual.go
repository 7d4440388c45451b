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
	timers []*vtimer // pending, unordered; selection scans for the minimum
}

// NewVirtual returns a virtual clock starting at a fixed epoch, so that two
// simulations from the same seed read identical times.
func NewVirtual() *Virtual {
	return &Virtual{now: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)}
}

type vtimer struct {
	clk     *Virtual
	when    time.Time
	seq     uint64
	f       func()
	stopped bool
}

// Stop implements Timer.
func (t *vtimer) Stop() bool {
	t.clk.mu.Lock()
	defer t.clk.mu.Unlock()
	if t.stopped {
		return false
	}
	t.stopped = true
	return true
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
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.seq++
	t := &vtimer{clk: v, when: v.now.Add(d), seq: v.seq, f: f}
	v.timers = append(v.timers, t)
	return t
}

// After implements Clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.AfterFunc(d, func() {
		ch <- v.Now()
	})
	return ch
}

// popNext removes and returns the pending timer with the earliest deadline
// (ties: lowest sequence number), or nil if none is pending. Requires v.mu
// held.
func (v *Virtual) popNext() *vtimer {
	best := -1
	for i, t := range v.timers {
		if t.stopped {
			continue
		}
		if best < 0 || t.when.Before(v.timers[best].when) ||
			(t.when.Equal(v.timers[best].when) && t.seq < v.timers[best].seq) {
			best = i
		}
	}
	if best < 0 {
		v.timers = v.timers[:0]
		return nil
	}
	t := v.timers[best]
	v.timers = append(v.timers[:best], v.timers[best+1:]...)
	return t
}

// pending reports the number of timers still scheduled.
func (v *Virtual) pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, t := range v.timers {
		if !t.stopped {
			n++
		}
	}
	return n
}

// NextDeadline returns the earliest pending timer deadline.
func (v *Virtual) NextDeadline() (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	var best *vtimer
	for _, t := range v.timers {
		if t.stopped {
			continue
		}
		if best == nil || t.when.Before(best.when) ||
			(t.when.Equal(best.when) && t.seq < best.seq) {
			best = t
		}
	}
	if best == nil {
		return time.Time{}, false
	}
	return best.when, true
}

// Step advances the clock to the earliest pending timer and fires it,
// reporting whether a timer fired. The callback runs with no clock lock
// held, so it may schedule or stop timers.
func (v *Virtual) Step() bool {
	v.mu.Lock()
	t := v.popNext()
	if t == nil {
		v.mu.Unlock()
		return false
	}
	if t.when.After(v.now) {
		v.now = t.when
	}
	v.mu.Unlock()
	t.f()
	return true
}

// Advance moves the clock forward by d, firing every timer that becomes due
// (in deadline order) along the way; timers scheduled by fired callbacks
// fire too if they fall within the window.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.now.Add(d)
	v.mu.Unlock()
	for {
		v.mu.Lock()
		var due *vtimer
		// Peek without removing so timers beyond the window stay pending.
		best := -1
		for i, t := range v.timers {
			if t.stopped || t.when.After(target) {
				continue
			}
			if best < 0 || t.when.Before(v.timers[best].when) ||
				(t.when.Equal(v.timers[best].when) && t.seq < v.timers[best].seq) {
				best = i
			}
		}
		if best >= 0 {
			due = v.timers[best]
			v.timers = append(v.timers[:best], v.timers[best+1:]...)
			if due.when.After(v.now) {
				v.now = due.when
			}
		}
		v.mu.Unlock()
		if due == nil {
			break
		}
		due.f()
	}
	v.mu.Lock()
	if target.After(v.now) {
		v.now = target
	}
	v.mu.Unlock()
}
