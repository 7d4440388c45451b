// Package sim is a deterministic discrete-event simulator for what the
// commit engine lacks: central-site 3PC with quorum-based termination, the
// partitions and vote weights that termination protocol exists for, and the
// unsafe ablation that skips phase 1 of the backup protocol
// (Config.SkipBackupPhase1). Experiment A1, A3 and examples/partition run
// here; every other table is measured on the real engine under internal/dst.
//
// The simulator models the paper's environment: point-to-point messages with
// configurable latency, crash-stop site failures, and a perfect failure
// detector (the network "can detect the failure of a site and reliably
// report it to an operational site" after a detection delay) — plus, outside
// the paper's model, network partitions.
package sim

import (
	"container/heap"
	"math/rand"
)

// Time is virtual time in microseconds.
type Time int64

// Common durations.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * Millisecond
)

type event struct {
	at  Time
	seq uint64 // FIFO tiebreak for simultaneous events
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)     { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() (out any) { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }
func (h eventHeap) Peek() (Time, bool) { // smallest timestamp
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// Sim is a single-threaded discrete-event scheduler.
type Sim struct {
	now Time
	pq  eventHeap
	seq uint64
	rng *rand.Rand
}

// New returns a simulator seeded for reproducibility.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.pq, event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d after the current time.
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// Run executes events until the queue drains or the step limit is reached,
// returning the number of events processed.
func (s *Sim) Run(maxSteps int) int {
	steps := 0
	for len(s.pq) > 0 {
		if maxSteps > 0 && steps >= maxSteps {
			break
		}
		ev := heap.Pop(&s.pq).(event)
		s.now = ev.at
		ev.fn()
		steps++
	}
	return steps
}

// RunUntil executes events with timestamps <= deadline.
func (s *Sim) RunUntil(deadline Time) {
	for {
		at, ok := s.pq.Peek()
		if !ok || at > deadline {
			break
		}
		ev := heap.Pop(&s.pq).(event)
		s.now = ev.at
		ev.fn()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Uniform samples a latency in [lo, hi] from the simulator's RNG.
func (s *Sim) Uniform(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(s.rng.Int63n(int64(hi-lo+1)))
}
