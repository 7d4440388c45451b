package transport

import (
	"encoding/hex"
	"reflect"
	"testing"
)

// TestWireGolden pins the frame's bytes: one fixed message, its hex captured
// before decodeWirePayload moved onto package codec.
func TestWireGolden(t *testing.T) {
	m := Message{From: 2, To: -3, Kind: "VOTE-REQ", TxID: "tx-1-0-7", Body: []byte{0x01, 0x02, 0xff}}
	const want = "1901040508564f54452d5245510874782d312d302d37030102ff"
	enc := appendMessage(nil, m)
	if got := hex.EncodeToString(enc); got != want {
		t.Fatalf("frame %s, want %s", got, want)
	}
	got, err := decodeWirePayload(enc[1:]) // the length prefix is one byte
	if err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("decoded %+v, %v", got, err)
	}
}
