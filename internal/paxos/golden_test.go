package paxos

import (
	"encoding/hex"
	"testing"
)

// TestCodecGolden pins each body's bytes: one fixed value per format, its hex
// captured before the decoders moved onto package codec.
func TestCodecGolden(t *testing.T) {
	bal := Next(Next(0, 3), 5) // 0x85
	meta := []byte{0x01, 0x02}
	accepts := []Accepted{{Bal: 0, Val: ValYes}, {}, {Bal: bal, Val: ValAbort}}
	for _, c := range []struct {
		name string
		body []byte
		want string
	}{
		{"1a", EncodeP1a(bal, meta), "85010102"},
		{"1b", EncodeP1b(bal, accepts), "8501030079000085016e"},
		{"2a", EncodeP2a(bal, 2, ValYes, meta), "850102790102"},
		{"2b", EncodeP2b(bal, 7, ValAbort), "8501076e"},
	} {
		if got := hex.EncodeToString(c.body); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
