package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
)

// FuzzWireCodec drives the binary wire codec two ways at once: (1) any
// Message built from the fuzzed fields must survive an encode→decode round
// trip bit-exactly, and the same frame with any other version byte must be
// refused; (2) the decoder fed arbitrary bytes must never panic, never
// allocate beyond the frame bound, and always terminate — a corrupt frame,
// whatever its version byte, is an error that ends the stream, not a crash.
func FuzzWireCodec(f *testing.F) {
	f.Add(int64(1), int64(3), "PREPARE", "t42", []byte("hi"), []byte{})
	f.Add(int64(-9), int64(0), "", "", []byte(nil), []byte("garbage garbage"))
	f.Add(int64(1<<40), int64(-1), "VOTE-REQ", "tx-ünïcode", bytes.Repeat([]byte{0xAB}, 200),
		appendMessage(nil, Message{From: 7, To: 8, Kind: "ACK", TxID: "t"}))
	f.Add(int64(2), int64(2), "K", "t", []byte{0}, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3})

	f.Fuzz(func(t *testing.T, from, to int64, kind, txid string, body, raw []byte) {
		// Round trip.
		m := Message{From: int(from), To: int(to), Kind: kind, TxID: txid, Body: body}
		enc := appendMessage(nil, m)
		br := bufio.NewReader(bytes.NewReader(enc))
		got, _, err := readWireMessage(br, nil)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if len(got.Body) == 0 {
			got.Body = nil
		}
		if len(m.Body) == 0 {
			m.Body = nil
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip: got %+v, want %+v", got, m)
		}
		if _, _, err := readWireMessage(br, nil); err != io.EOF {
			t.Fatalf("trailing bytes after a single frame: %v", err)
		}

		// The same frame under another version byte is refused.
		v := byte(from)
		if v == wireV1 {
			v = wireV1 + 1
		}
		_, n := binary.Uvarint(enc)
		enc[n] = v
		if _, _, err := readWireMessage(bufio.NewReader(bytes.NewReader(enc)), nil); err != errMalformedFrame {
			t.Fatalf("version %d frame: err = %v, want errMalformedFrame", v, err)
		}

		// Garbage: decode raw as a frame stream until it errors out. Must not
		// panic; the first error ends the stream, as it closes a connection.
		// Bounded by the input length, so it always terminates.
		gbr := bufio.NewReader(bytes.NewReader(raw))
		var scratch []byte
		for err := error(nil); err == nil; {
			_, scratch, err = readWireMessage(gbr, scratch)
		}
	})
}
