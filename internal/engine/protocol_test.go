package engine_test

import (
	"strings"
	"testing"

	"nbcommit/internal/engine"
)

// ParseProtocol is the single parse table behind every protocol flag
// (kvnode, dst, bench); String() feeds report keys and log lines.
// The two must round-trip for each protocol family, and the canonical flag
// spellings must keep parsing.
func TestParseProtocolRoundTrip(t *testing.T) {
	kinds := []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase, engine.PaxosCommit}
	for _, k := range kinds {
		got, err := engine.ParseProtocol(k.String())
		if err != nil {
			t.Fatalf("ParseProtocol(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseProtocol(%q) = %v, want %v", k.String(), got, k)
		}
	}
	for spelling, want := range map[string]engine.ProtocolKind{
		"2pc": engine.TwoPhase, "3pc": engine.ThreePhase, "paxos": engine.PaxosCommit,
		"2PC": engine.TwoPhase, "Paxos": engine.PaxosCommit, "paxos-commit": engine.PaxosCommit,
	} {
		got, err := engine.ParseProtocol(spelling)
		if err != nil || got != want {
			t.Fatalf("ParseProtocol(%q) = %v, %v; want %v", spelling, got, err, want)
		}
	}
	if _, err := engine.ParseProtocol("4pc"); err == nil {
		t.Fatal("ParseProtocol accepted an unknown protocol")
	} else if !strings.Contains(err.Error(), "paxos") {
		t.Fatalf("error does not name the accepted spellings: %v", err)
	}
	// Distinct kinds must keep distinct names: the DST reports, benchmark
	// JSON rows and metrics labels are all keyed by String().
	seen := map[string]bool{}
	for _, k := range kinds {
		if seen[k.String()] {
			t.Fatalf("duplicate String() %q", k.String())
		}
		seen[k.String()] = true
	}
}
