package kv

import "testing"

// FuzzDecodeWrites: arbitrary payloads never panic the decoder, a payload
// with any tag but writesFormatV2 is refused, and valid encodings
// round-trip.
func FuzzDecodeWrites(f *testing.F) {
	good := EncodeWrites([]WriteOp{{Key: "a", Value: "1"}, {Key: "b", Delete: true}})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := DecodeWrites(data)
		if err != nil {
			if ops != nil {
				t.Fatalf("error %v came with a partial write set %+v", err, ops)
			}
			return // rejected, fine
		}
		if len(data) > 0 && data[0] != writesFormatV2 {
			t.Fatalf("payload tagged %#x decoded to %+v", data[0], ops)
		}
		ops2, err := DecodeWrites(EncodeWrites(ops))
		if err != nil {
			t.Fatalf("decode of re-encoded ops failed: %v", err)
		}
		if len(ops2) != len(ops) {
			t.Fatalf("round trip changed length: %d vs %d", len(ops), len(ops2))
		}
	})
}
