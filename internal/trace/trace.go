// Package trace records structured protocol events for debugging and for
// tests that assert exact message sequences.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Event is one recorded occurrence.
type Event struct {
	At   time.Time
	Site int
	Kind string
	TxID string
	Note string
}

// String renders "site 2: PREPARE tx=t1 (moved w->p)".
func (e Event) String() string {
	s := fmt.Sprintf("site %d: %s", e.Site, e.Kind)
	if e.TxID != "" {
		s += " tx=" + e.TxID
	}
	if e.Note != "" {
		s += " (" + e.Note + ")"
	}
	return s
}

// Recorder accumulates events; safe for concurrent use. The zero value is
// ready to use and keeps every event — right for tests asserting exact
// sequences, wrong for a long-running node. NewBounded returns a recorder
// that retains only the most recent events in a fixed-size ring, so tracing
// can stay enabled in production without leaking memory.
type Recorder struct {
	mu     sync.Mutex
	limit  int // >0: ring capacity; 0: unbounded
	events []Event
	start  int    // ring read position once events is full
	total  uint64 // events ever recorded, including overwritten ones
}

// NewBounded returns a Recorder that keeps only the most recent limit
// events, overwriting the oldest once full. A non-positive limit is
// unbounded.
func NewBounded(limit int) *Recorder {
	if limit < 0 {
		limit = 0
	}
	return &Recorder{limit: limit}
}

// Add records an event with the current wall time.
func (r *Recorder) Add(site int, kind, txid, note string) {
	e := Event{At: time.Now(), Site: site, Kind: kind, TxID: txid, Note: note}
	r.mu.Lock()
	if r.limit > 0 && len(r.events) == r.limit {
		r.events[r.start] = e
		r.start = (r.start + 1) % r.limit
	} else {
		r.events = append(r.events, e)
	}
	r.total++
	r.mu.Unlock()
}

// Events returns a copy of everything retained, oldest first. With a bound,
// that is the most recent Limit events.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.start:]...)
	out = append(out, r.events[:r.start]...)
	return out
}

// Total returns how many events were ever recorded, including any the ring
// has since overwritten.
func (r *Recorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events the bound has overwritten.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.events))
}

// kinds returns the sequence of event kinds, convenient for assertions.
func (r *Recorder) kinds() []string {
	evs := r.Events()
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.Kind
	}
	return out
}

// filter returns the events matching the predicate.
func (r *Recorder) filter(keep func(Event) bool) []Event {
	var out []Event
	for _, e := range r.Events() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// reset discards all recorded events and counters, keeping the bound.
func (r *Recorder) reset() {
	r.mu.Lock()
	r.events = nil
	r.start = 0
	r.total = 0
	r.mu.Unlock()
}

// dump renders every event, one per line.
func (r *Recorder) dump() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
