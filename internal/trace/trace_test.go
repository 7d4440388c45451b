package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	var r Recorder
	r.Add(1, "VOTE-REQ", "t1", "")
	r.Add(2, "YES", "t1", "voted")
	evs := r.Events()
	if len(evs) != 2 || evs[0].Kind != "VOTE-REQ" || evs[1].Note != "voted" {
		t.Fatalf("events = %v", evs)
	}
	kinds := r.kinds()
	if len(kinds) != 2 || kinds[0] != "VOTE-REQ" || kinds[1] != "YES" {
		t.Fatalf("kinds = %v", kinds)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Site: 2, Kind: "PREPARE", TxID: "t1", Note: "moved w->p"}
	if got := e.String(); got != "site 2: PREPARE tx=t1 (moved w->p)" {
		t.Fatalf("String = %q", got)
	}
	bare := Event{Site: 1, Kind: "HB"}
	if got := bare.String(); got != "site 1: HB" {
		t.Fatalf("String = %q", got)
	}
}

func TestFilterAndReset(t *testing.T) {
	var r Recorder
	r.Add(1, "A", "t1", "")
	r.Add(2, "B", "t1", "")
	r.Add(1, "C", "t2", "")
	only1 := r.filter(func(e Event) bool { return e.Site == 1 })
	if len(only1) != 2 {
		t.Fatalf("filtered = %v", only1)
	}
	if !strings.Contains(r.dump(), "site 2: B tx=t1") {
		t.Fatalf("dump = %q", r.dump())
	}
	r.reset()
	if len(r.Events()) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestBoundedRecorderOverwritesOldest(t *testing.T) {
	r := NewBounded(3)
	for i := 0; i < 5; i++ {
		r.Add(1, string(rune('A'+i)), "t", "")
	}
	kinds := r.kinds()
	if len(kinds) != 3 || kinds[0] != "C" || kinds[1] != "D" || kinds[2] != "E" {
		t.Fatalf("kinds = %v, want [C D E]", kinds)
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d, want 5", r.Total())
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
}

func TestBoundedRecorderUnderLimit(t *testing.T) {
	r := NewBounded(10)
	r.Add(1, "A", "t", "")
	r.Add(2, "B", "t", "")
	kinds := r.kinds()
	if len(kinds) != 2 || kinds[0] != "A" || kinds[1] != "B" {
		t.Fatalf("kinds = %v", kinds)
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", r.Dropped())
	}
}

func TestBoundedRecorderReset(t *testing.T) {
	r := NewBounded(2)
	for i := 0; i < 5; i++ {
		r.Add(1, "E", "t", "")
	}
	r.reset()
	if len(r.Events()) != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatalf("reset left state: events=%d total=%d dropped=%d",
			len(r.Events()), r.Total(), r.Dropped())
	}
	// The bound survives a reset.
	for i := 0; i < 5; i++ {
		r.Add(1, "F", "t", "")
	}
	if len(r.Events()) != 2 {
		t.Fatalf("bound lost after reset: %d events", len(r.Events()))
	}
}

func TestBoundedRecorderConcurrent(t *testing.T) {
	r := NewBounded(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Add(site, "E", "t", "")
				_ = r.Events()
			}
		}(i)
	}
	wg.Wait()
	if got := len(r.Events()); got != 64 {
		t.Fatalf("retained = %d, want 64", got)
	}
	if r.Total() != 1600 || r.Dropped() != 1600-64 {
		t.Fatalf("total = %d dropped = %d", r.Total(), r.Dropped())
	}
}

func TestRecorderConcurrent(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Add(site, "E", "t", "")
			}
		}(i)
	}
	wg.Wait()
	if len(r.Events()) != 800 {
		t.Fatalf("events = %d", len(r.Events()))
	}
}
