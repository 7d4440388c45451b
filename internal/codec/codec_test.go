package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf []byte
	buf = append(buf, 7)
	buf = binary.AppendUvarint(buf, 300)
	buf = binary.AppendVarint(buf, -5)
	buf = binary.AppendVarint(buf, math.MinInt64)
	buf = binary.AppendVarint(buf, math.MaxInt64)
	buf = AppendString(buf, "key")
	buf = AppendBytes(buf, []byte{1, 2})
	buf = AppendBytes(buf, nil)
	buf = binary.AppendUvarint(buf, 2)
	buf = append(buf, 'x', 'y')

	r := NewReader(buf)
	if b := r.Byte(); b != 7 {
		t.Fatalf("Byte = %d", b)
	}
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	for _, want := range []int64{-5, math.MinInt64, math.MaxInt64} {
		if v := r.Varint(); v != want {
			t.Fatalf("Varint = %d, want %d", v, want)
		}
	}
	if s := r.String(); s != "key" {
		t.Fatalf("String = %q", s)
	}
	if b := r.Bytes(); !bytes.Equal(b, []byte{1, 2}) {
		t.Fatalf("Bytes = %v", b)
	}
	if b := r.Bytes(); b != nil {
		t.Fatalf("empty Bytes = %#v, want nil", b)
	}
	if n := r.Count(); n != 2 {
		t.Fatalf("Count = %d", n)
	}
	if r.Done() {
		t.Fatal("Done with two bytes left")
	}
	if rest := r.Rest(); string(rest) != "xy" {
		t.Fatalf("Rest = %q", rest)
	}
	if !r.Done() {
		t.Fatal("not Done after Rest")
	}
}

// TestShortReadIsSticky: once a read runs off the end, it and every later
// read return the zero value and the Reader stays bad, even where the bytes
// that remain would have parsed.
func TestShortReadIsSticky(t *testing.T) {
	r := NewReader([]byte{0x80}) // a uvarint whose continuation bit promises more
	if v := r.Uvarint(); v != 0 {
		t.Fatalf("short Uvarint = %d", v)
	}
	if b, s, rest := r.Byte(), r.String(), r.Rest(); b != 0 || s != "" || len(rest) != 0 {
		t.Fatalf("reads after a short one: %d %q %v", b, s, rest)
	}
	if r.Done() {
		t.Fatal("Done after a short read")
	}

	r = NewReader(AppendString(nil, "abc")[:3]) // the length says 3, two bytes follow
	if s := r.String(); s != "" {
		t.Fatalf("truncated String = %q", s)
	}
	if r.Done() {
		t.Fatal("Done after a truncated string")
	}

	r = NewReader(nil)
	r.Byte()
	if r.Done() {
		t.Fatal("Done after reading a byte from nothing")
	}
}

// TestCountRefusesMoreThanLeft: a count larger than the bytes behind it
// reads as 0 and marks the body bad; one that fits is returned.
func TestCountRefusesMoreThanLeft(t *testing.T) {
	r := NewReader([]byte{3, 1, 2})
	if n := r.Count(); n != 0 || r.Done() {
		t.Fatalf("Count over two bytes = %d, Done %v", n, r.Done())
	}
	r = NewReader(binary.AppendUvarint(nil, 1<<62))
	if n := r.Count(); n != 0 || r.Done() {
		t.Fatalf("hostile Count = %d, Done %v", n, r.Done())
	}
	r = NewReader([]byte{2, 1, 2})
	if n := r.Count(); n != 2 {
		t.Fatalf("Count = %d, want 2", n)
	}
}

// TestBytesDoesNotAlias: the field Bytes returns survives a reuse of the
// input buffer; Rest, by contract, aliases it.
func TestBytesDoesNotAlias(t *testing.T) {
	buf := AppendBytes(nil, []byte("abc"))
	buf = append(buf, "tail"...)
	r := NewReader(buf)
	b, rest := r.Bytes(), r.Rest()
	for i := range buf {
		buf[i] = 0
	}
	if string(b) != "abc" {
		t.Fatalf("Bytes aliased its input: %q", b)
	}
	if string(rest) != "\x00\x00\x00\x00" {
		t.Fatalf("Rest copied its input: %q", rest)
	}
}
