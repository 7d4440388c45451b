package dst

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"nbcommit/internal/engine"
)

// TestDispatchChangeLeftDeterministicRunsAlone pins deterministic runs to the
// WAL digests and traces recorded before inbound dispatch changed (messages
// of kinds the engine does not own now bypass the event queue): in
// deterministic mode nothing about a protocol message's path may have moved.
// Seed 1 of 2PC and 3PC is re-pinned: its schedule launches decentralized
// transactions, whose D-YES now carries the meta and is no longer dropped
// when it beats the D-XACT (see EXPERIMENTS.md).
func TestDispatchChangeLeftDeterministicRunsAlone(t *testing.T) {
	for _, pin := range []struct {
		proto        engine.ProtocolKind
		seed         int64
		wal, journal string // WAL digest; sha256 of the trace lines joined by "\n"
	}{
		{engine.TwoPhase, 1, "c1b6412fc8229126", "f7eaa35a5baeed219d963c2a98771dc94c5107f871ad3947ad46a9a0f9865a99"},
		{engine.TwoPhase, 42, "dd17c3b850af3e0e", "07b292c81a1508933560b4b11e8383ea70311e086fb2ef42522d9467bbc8f210"},
		{engine.TwoPhase, 99999, "261fa5cdbeb952bc", "a11522cfe3280242f6a60b7a067dddf8f37fc16a38700cb050cda13513cc934e"},
		{engine.ThreePhase, 1, "93e9be7839a31f85", "1fe1aec2080ef775b517ebba1cc5eb9fe9954dbd7404fa6c351f9be27cedf38b"},
		{engine.ThreePhase, 42, "f0058dde9f218acf", "a3bba6c1d370423d377b53563630248cfea00d43ce3d2813090b73ffefb0adc1"},
		{engine.ThreePhase, 99999, "df97a89632d3b1a8", "c7b7abb704179c27712c2b06f64aee10fa406ef39c26e54e9a95defcc04070fe"},
		{engine.PaxosCommit, 1, "4b45513ebd9c9f32", "d083fa93a01a08f0bd47899d3889a6e12ab4a3f94ebbd99b0816d0bc427b301c"},
		{engine.PaxosCommit, 42, "8ae979d719469e9f", "c83508e6aeb720b4f5b72ea960d64c3ed4cc3eab5203847830ae5e8223fd25fb"},
		{engine.PaxosCommit, 99999, "a24dd98e88669a7d", "6645cff1b3d064f9939e3bc0c36114307f2949bd7dcbc2b5306f3099c63e4103"},
	} {
		r := RunRandom(Config{Protocol: pin.proto}, pin.seed)
		journal := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(r.Trace, "\n"))))
		if r.WALDigest != pin.wal || journal != pin.journal {
			t.Errorf("%s seed %d: WAL digest %s, trace %s; pinned %s, %s", pin.proto, pin.seed, r.WALDigest, journal, pin.wal, pin.journal)
		}
	}
}
