package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

func wireRoundTrip(t *testing.T, m Message) Message {
	t.Helper()
	enc := appendMessage(nil, m)
	br := bufio.NewReader(bytes.NewReader(enc))
	got, _, err := readWireMessage(br, nil)
	if err != nil {
		t.Fatalf("decode %+v: %v", m, err)
	}
	return got
}

func TestWireRoundTrip(t *testing.T) {
	msgs := []Message{
		{},
		{From: 1, To: 3, Kind: "PREPARE", TxID: "t42"},
		{From: -7, To: 1 << 30, Kind: "K", TxID: "", Body: []byte{0, 1, 2, 0xFF}},
		{Kind: "VOTE-REQ", TxID: "tx-ünïcode-✓", Body: bytes.Repeat([]byte("x"), 4096)},
	}
	for _, m := range msgs {
		got := wireRoundTrip(t, m)
		// nil vs empty body: the wire cannot tell, so normalize.
		if len(got.Body) == 0 {
			got.Body = nil
		}
		if len(m.Body) == 0 {
			m.Body = nil
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip: got %+v, want %+v", got, m)
		}
	}
}

// TestWireCoalescedBatchSplitAcrossPartialReads: a coalesced batch written
// as one buffer must decode correctly even when the network delivers it one
// byte at a time — the reader reassembles frames across partial reads.
func TestWireCoalescedBatchSplitAcrossPartialReads(t *testing.T) {
	var buf []byte
	want := make([]Message, 20)
	for i := range want {
		want[i] = Message{From: 1, To: 2, Kind: "ACK", TxID: "t", Body: []byte{byte(i)}}
		buf = appendMessage(buf, want[i])
	}
	br := bufio.NewReader(iotest.OneByteReader(bytes.NewReader(buf)))
	var scratch []byte
	for i := range want {
		var m Message
		var err error
		m, scratch, err = readWireMessage(br, scratch)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(m, want[i]) {
			t.Fatalf("message %d: got %+v, want %+v", i, m, want[i])
		}
	}
	if _, _, err := readWireMessage(br, scratch); err != io.EOF {
		t.Fatalf("after batch: err = %v, want EOF", err)
	}
}

// TestWireUnknownVersionIsRefused: a frame whose version byte is not wireV1
// is malformed like any other, even when the rest of it would parse.
func TestWireUnknownVersionIsRefused(t *testing.T) {
	for _, v := range []byte{0, 2, 99} {
		buf := appendMessage(nil, Message{From: 1, To: 2, Kind: "OK"})
		_, n := binary.Uvarint(buf)
		buf[n] = v
		br := bufio.NewReader(bytes.NewReader(buf))
		if _, _, err := readWireMessage(br, nil); err != errMalformedFrame {
			t.Fatalf("version %d: err = %v, want errMalformedFrame", v, err)
		}
	}
}

// TestWireGarbageErrorsCleanly: truncated and corrupt frames error without
// panicking and without huge allocations.
func TestWireGarbageErrorsCleanly(t *testing.T) {
	cases := [][]byte{
		{},
		{0x05},                         // length 5, no payload
		{0x01, 0x01},                   // version only, missing fields
		{0x03, 0x01, 0x00, 0x00},       // fields truncated mid-message
		{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, // length far beyond maxWireFrame
		appendMessage(nil, Message{Kind: "X"})[:2],
	}
	for i, raw := range cases {
		br := bufio.NewReader(bytes.NewReader(raw))
		if _, _, err := readWireMessage(br, nil); err == nil {
			t.Fatalf("case %d: garbage decoded without error", i)
		}
	}
}

// TestWireTrailingJunkRejected: a frame whose payload is longer than its
// fields is corrupt, not silently tolerated.
func TestWireTrailingJunkRejected(t *testing.T) {
	enc := appendMessage(nil, Message{Kind: "K"})
	// Re-frame the same payload with two junk bytes appended.
	payloadLen, n := binary.Uvarint(enc)
	payload := append(enc[n:n+int(payloadLen)], 0xAA, 0xBB)
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	br := bufio.NewReader(bytes.NewReader(buf))
	if _, _, err := readWireMessage(br, nil); err != errMalformedFrame {
		t.Fatalf("err = %v, want errMalformedFrame", err)
	}
}

func BenchmarkWireEncode(b *testing.B) {
	m := Message{From: 1, To: 3, Kind: "PREPARE", TxID: "tx-000042", Body: bytes.Repeat([]byte("v"), 64)}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendMessage(buf[:0], m)
	}
}

func BenchmarkWireDecode(b *testing.B) {
	m := Message{From: 1, To: 3, Kind: "PREPARE", TxID: "tx-000042", Body: bytes.Repeat([]byte("v"), 64)}
	enc := appendMessage(nil, m)
	r := bytes.NewReader(enc)
	br := bufio.NewReader(r)
	var scratch []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(enc)
		br.Reset(r)
		var err error
		_, scratch, err = readWireMessage(br, scratch)
		if err != nil {
			b.Fatal(err)
		}
	}
}
