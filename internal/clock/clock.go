// Package clock abstracts the engine's time source so that protocol code
// never touches the wall clock directly. Real deployments use Wall, which
// delegates to package time; deterministic simulation (internal/dst) injects
// a Virtual clock whose timers fire only when the simulation advances it —
// making every timeout-driven code path replayable from a seed.
package clock

import "time"

// Timer is a pending callback, the subset of *time.Timer the engine needs.
type Timer interface {
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
	// Reset reschedules the timer to fire d from now, whether it was
	// pending, stopped or had already fired, reporting whether it was still
	// pending.
	Reset(d time.Duration) bool
}

// Clock supplies the current time and timer scheduling.
type Clock interface {
	// Now returns the clock's current time.
	Now() time.Time
	// AfterFunc schedules f to run once d has elapsed on this clock.
	AfterFunc(d time.Duration, f func()) Timer
}

// Wall is the real-time clock backed by package time.
var Wall Clock = wallClock{}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }
