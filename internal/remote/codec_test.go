package remote

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func cohort(n int) []int {
	sites := make([]int, n)
	for i := range sites {
		sites[i] = i + 1
	}
	return sites
}

var big = strings.Repeat("v", 64<<10)

// Every op, and every field at its boundaries.
var (
	codecRequests = []Request{
		{},
		{ReqID: 1, TxID: "tx-1-1", Op: OpGet, Key: "k"},
		{ReqID: 2, TxID: "tx-1-1", Op: OpPut, Enlist: true, Key: "k", Value: "v", MapVersion: 3},
		{ReqID: 3, TxID: "tx-1-1", Op: OpPut, Key: "empty value"},
		{ReqID: 4, TxID: "tx-1-1", Op: OpPut, Key: "k", Value: big},
		{ReqID: 5, TxID: "tx-1-1", Op: OpDelete, Enlist: true, Key: "k"},
		{ReqID: 6, TxID: "tx-1-1", Op: OpAbort},
		{ReqID: 7, TxID: "tx-1-1", Op: OpCommit, Participants: []int{1, 3}},
		{ReqID: 8, TxID: "tx-1-1", Op: OpCommit, Participants: cohort(64), MapVersion: math.MaxUint64},
		{ReqID: 9, Op: OpSnapGet, Key: "k"},
		{ReqID: math.MaxUint64, Op: OpSnapGet, Key: "k", SnapTS: math.MaxUint64},
		{ReqID: 10, TxID: "t", Op: Op(0x7F), Enlist: true}, // an op this build does not know still decodes
	}
	codecReplies = []Reply{
		{},
		{ReqID: 1},
		{ReqID: 2, Value: "v"},
		{ReqID: 3, Value: big},
		{ReqID: 4, Err: "kv: key not found: k"},
		{ReqID: 5, Err: "kv: key not found: k", TS: 17}, // an error reply that carries TS
		{ReqID: math.MaxUint64, Value: "v", TS: math.MaxUint64},
	}
)

func TestCodecRoundTrip(t *testing.T) {
	for _, want := range codecRequests {
		got, err := DecodeRequest(encodeRequest(want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("request %v %q: got %+v, %v", want.Op, want.Key, got, err)
		}
	}
	for _, want := range codecReplies {
		got, err := DecodeReply(encodeReply(want))
		if err != nil || got != want {
			t.Errorf("reply %d: got %+v, %v", want.ReqID, got, err)
		}
	}
}

// TestCodecTruncation: a body cut short at any offset, or with a byte left
// over, is an error — never a panic, never a partial value.
func TestCodecTruncation(t *testing.T) {
	for _, req := range codecRequests {
		if len(req.Value) > 1024 {
			continue // the boundary is the length prefix, not the 64 KiB behind it
		}
		body := encodeRequest(req)
		for n := 0; n < len(body); n++ {
			if got, err := DecodeRequest(body[:n]); err == nil {
				t.Fatalf("request %v cut at %d of %d decoded: %+v", req.Op, n, len(body), got)
			}
		}
		if _, err := DecodeRequest(append(body, 0)); err == nil {
			t.Fatalf("request %v with a trailing byte decoded", req.Op)
		}
		if _, err := DecodeReply(body); err == nil {
			t.Fatalf("request %v decoded as a reply", req.Op)
		}
	}
	for _, rep := range codecReplies {
		if len(rep.Value) > 1024 {
			continue
		}
		body := encodeReply(rep)
		for n := 0; n < len(body); n++ {
			if got, err := DecodeReply(body[:n]); err == nil {
				t.Fatalf("reply %d cut at %d of %d decoded: %+v", rep.ReqID, n, len(body), got)
			}
		}
		if _, err := DecodeReply(append(body, 0)); err == nil {
			t.Fatalf("reply %d with a trailing byte decoded", rep.ReqID)
		}
		if _, err := DecodeRequest(body); err == nil {
			t.Fatalf("reply %d decoded as a request", rep.ReqID)
		}
	}
}

func TestCodecRejectsHostileLengths(t *testing.T) {
	for name, body := range map[string][]byte{
		"string length past the body":     {tagRequest, byte(OpGet), 1, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"participant count past the body": {tagRequest, byte(OpCommit), 1, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"varint that never ends":          {tagRequest, byte(OpGet), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		"unknown reply flag":              {tagReply, 0x80, 1, 0, 0},
	} {
		if _, err := DecodeRequest(body); err == nil {
			t.Errorf("%s: decoded as a request", name)
		}
		if _, err := DecodeReply(body); err == nil {
			t.Errorf("%s: decoded as a reply", name)
		}
	}
}

// FuzzRemoteCodec: whatever the fields, a frame decodes to what was encoded;
// whatever the bytes, decoding returns or errors without panicking, and what
// it accepts re-encodes to something that decodes the same.
func FuzzRemoteCodec(f *testing.F) {
	f.Add(uint64(1), "tx-1-1", uint8(OpPut), true, "k", "v", uint64(3), uint64(0), uint8(0), []byte{})
	f.Add(uint64(math.MaxUint64), "", uint8(OpSnapGet), false, "key", "", uint64(0), uint64(math.MaxUint64), uint8(0), []byte("garbage garbage"))
	f.Add(uint64(7), "t", uint8(OpCommit), false, "", "", uint64(1), uint64(0), uint8(64), encodeRequest(codecRequests[7]))
	f.Add(uint64(9), "t", uint8(0xFF), true, "k", "not found", uint64(0), uint64(17), uint8(1), encodeReply(codecReplies[5]))

	f.Fuzz(func(t *testing.T, id uint64, txid string, op uint8, enlist bool, key, value string, mapv, ts uint64, sites uint8, raw []byte) {
		req := Request{ReqID: id, TxID: txid, Op: Op(op &^ enlistBit), Enlist: enlist, Key: key, Value: value, MapVersion: mapv, SnapTS: ts}
		if sites > 0 {
			req.Participants = cohort(int(sites))
		}
		if got, err := DecodeRequest(encodeRequest(req)); err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("request round trip: got %+v, %v, want %+v", got, err, req)
		}
		for _, rep := range []Reply{{ReqID: id, Value: value, TS: ts}, {ReqID: id, Err: key, TS: ts}} {
			if got, err := DecodeReply(encodeReply(rep)); err != nil || got != rep {
				t.Fatalf("reply round trip: got %+v, %v, want %+v", got, err, rep)
			}
		}

		if got, err := DecodeRequest(raw); err == nil {
			if again, err := DecodeRequest(encodeRequest(got)); err != nil || !reflect.DeepEqual(again, got) {
				t.Fatalf("accepted request does not re-encode: %+v then %+v, %v", got, again, err)
			}
		}
		if got, err := DecodeReply(raw); err == nil {
			if again, err := DecodeReply(encodeReply(got)); err != nil || again != got {
				t.Fatalf("accepted reply does not re-encode: %+v then %+v, %v", got, again, err)
			}
		}
	})
}

// The codec's allocation budget: encoding is the body and nothing else;
// decoding is one string per non-empty string field (plus the cohort slice
// of an OpCommit).
func TestCodecAllocBudget(t *testing.T) {
	put := Request{ReqID: 42, TxID: "tx-000042", Op: OpPut, Enlist: true, Key: "account-17", Value: strings.Repeat("v", 64), MapVersion: 1}
	commit := Request{ReqID: 43, TxID: "tx-000042", Op: OpCommit, Participants: []int{1, 2, 3}}
	val := Reply{ReqID: 42, Value: strings.Repeat("v", 64)}
	putBody, commitBody, valBody, okBody := encodeRequest(put), encodeRequest(commit), encodeReply(val), encodeReply(Reply{ReqID: 42})
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"encode put", 1, func() { _ = encodeRequest(put) }},
		{"encode commit", 1, func() { _ = encodeRequest(commit) }},
		{"encode reply", 1, func() { _ = encodeReply(val) }},
		{"decode put", 3, func() { _, _ = DecodeRequest(putBody) }},       // TxID, Key, Value
		{"decode commit", 2, func() { _, _ = DecodeRequest(commitBody) }}, // TxID, cohort
		{"decode value reply", 1, func() { _, _ = DecodeReply(valBody) }},
		{"decode OK reply", 0, func() { _, _ = DecodeReply(okBody) }},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got > c.max {
			t.Errorf("%s: %.0f allocs, budget %.0f", c.name, got, c.max)
		}
	}
}

func BenchmarkEncodeRequest(b *testing.B) {
	req := Request{ReqID: 42, TxID: "tx-000042", Op: OpPut, Key: "account-17", Value: strings.Repeat("v", 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = encodeRequest(req)
	}
}

func BenchmarkDecodeRequest(b *testing.B) {
	body := encodeRequest(Request{ReqID: 42, TxID: "tx-000042", Op: OpPut, Key: "account-17", Value: strings.Repeat("v", 64)})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRequest(body); err != nil {
			b.Fatal(err)
		}
	}
}
