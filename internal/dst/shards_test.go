package dst

// The engine's sharded runtime must be invisible to deterministic
// simulation: the same seed has to produce byte-identical traces and WAL
// digests whatever Config.Shards is, because the timer wheel is per site
// (not per shard) and crash reports visit transactions in globally sorted
// order. This is the property that lets a seed reported from a
// production-shaped (multi-shard) configuration be replayed anywhere.

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"nbcommit/internal/engine"
)

// TestDispatchChangeLeftDeterministicRunsAlone pins single-shard deterministic
// runs to the WAL digests and traces recorded before inbound dispatch changed
// (messages of kinds the engine does not own now bypass the shard queues): in
// deterministic mode nothing about a protocol message's path may have moved.
func TestDispatchChangeLeftDeterministicRunsAlone(t *testing.T) {
	for _, pin := range []struct {
		proto        engine.ProtocolKind
		seed         int64
		wal, journal string // WAL digest; sha256 of the trace lines joined by "\n"
	}{
		{engine.TwoPhase, 1, "ecc558c32589210a", "eee75ea4e2640c9bfd8366c25d878a1d9e73671d66fb888f23d7a9f7197d431c"},
		{engine.TwoPhase, 42, "dd17c3b850af3e0e", "07b292c81a1508933560b4b11e8383ea70311e086fb2ef42522d9467bbc8f210"},
		{engine.TwoPhase, 99999, "261fa5cdbeb952bc", "a11522cfe3280242f6a60b7a067dddf8f37fc16a38700cb050cda13513cc934e"},
		{engine.ThreePhase, 1, "172ac04e913a251d", "ed04ddcf3e602aa325ebc838bfb9a978cf52fb089bac6d1993975b065229fa59"},
		{engine.ThreePhase, 42, "f0058dde9f218acf", "a3bba6c1d370423d377b53563630248cfea00d43ce3d2813090b73ffefb0adc1"},
		{engine.ThreePhase, 99999, "df97a89632d3b1a8", "c7b7abb704179c27712c2b06f64aee10fa406ef39c26e54e9a95defcc04070fe"},
		{engine.PaxosCommit, 1, "4b45513ebd9c9f32", "d083fa93a01a08f0bd47899d3889a6e12ab4a3f94ebbd99b0816d0bc427b301c"},
		{engine.PaxosCommit, 42, "8ae979d719469e9f", "c83508e6aeb720b4f5b72ea960d64c3ed4cc3eab5203847830ae5e8223fd25fb"},
		{engine.PaxosCommit, 99999, "a24dd98e88669a7d", "6645cff1b3d064f9939e3bc0c36114307f2949bd7dcbc2b5306f3099c63e4103"},
	} {
		r := RunRandom(Config{Protocol: pin.proto, Shards: 1}, pin.seed)
		journal := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(r.Trace, "\n"))))
		if r.WALDigest != pin.wal || journal != pin.journal {
			t.Errorf("%s seed %d: WAL digest %s, trace %s; pinned %s, %s", pin.proto, pin.seed, r.WALDigest, journal, pin.wal, pin.journal)
		}
	}
}

func TestShardCountInvariantDeterminism(t *testing.T) {
	for _, proto := range []engine.ProtocolKind{engine.TwoPhase, engine.ThreePhase} {
		for _, seed := range []int64{1, 7, 42, 1234, 99999} {
			base := RunRandom(Config{Protocol: proto, Shards: 1}, seed)
			for _, shards := range []int{2, 8} {
				got := RunRandom(Config{Protocol: proto, Shards: shards}, seed)
				if got.WALDigest != base.WALDigest {
					t.Fatalf("%s seed %d: WAL digest differs between 1 and %d shards: %s vs %s",
						proto, seed, shards, base.WALDigest, got.WALDigest)
				}
				if len(got.Trace) != len(base.Trace) {
					t.Fatalf("%s seed %d: trace length differs between 1 and %d shards: %d vs %d",
						proto, seed, shards, len(base.Trace), len(got.Trace))
				}
				for i := range base.Trace {
					if got.Trace[i] != base.Trace[i] {
						t.Fatalf("%s seed %d: traces diverge at step %d with %d shards:\n  %s\n  %s",
							proto, seed, i, shards, base.Trace[i], got.Trace[i])
					}
				}
			}
		}
	}

	// Crash-point schedules (mid-protocol crash + recovery) replay
	// identically across shard counts too.
	cfg := Config{Protocol: engine.ThreePhase}
	pts := enumerateCrashPoints(cfg.withDefaults())
	if len(pts) == 0 {
		t.Fatal("no crash points enumerated")
	}
	for _, cp := range []CrashPoint{pts[0], pts[len(pts)/2], pts[len(pts)-1]} {
		a := RunCrashPoint(Config{Protocol: engine.ThreePhase, Shards: 1}, cp)
		b := RunCrashPoint(Config{Protocol: engine.ThreePhase, Shards: 8}, cp)
		if a.WALDigest != b.WALDigest || len(a.Trace) != len(b.Trace) {
			t.Fatalf("crash point %s: 1-shard and 8-shard runs diverge", cp)
		}
	}
}
