// Package codec is the flat-varint layout every message body and WAL payload
// in this repository is written in: integers are varints, strings and byte
// fields are a uvarint length followed by their bytes, and nothing is
// self-describing. Each format's owner states its own field order, tags and
// bounds; this package holds only what every format shares: the length-
// prefixed appends and one bounds-checked Reader, so the rule that a short
// varint or a length past the end makes a body malformed is written once.
package codec

import "encoding/binary"

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// AppendBytes appends b as a uvarint length followed by its bytes.
func AppendBytes(buf []byte, b []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(b))), b...)
}

// Reader consumes a body front to back. The first short or malformed read
// marks it bad, and every later read returns the zero value, so a decoder
// reads all its fields and checks once, at the end, with Done. A layout that
// ends in an opaque tail reads it with Rest, which empties the Reader, so
// Done still answers whether every read before it was well formed.
//
// The Reader advances an offset rather than reslicing p: an integer store
// needs no GC write barrier, and decoding runs on every delivered message.
type Reader struct {
	p   []byte
	off int // bytes consumed; len(p) once bad
	bad bool
}

// NewReader returns a Reader over p. The Reader never modifies p.
func NewReader(p []byte) Reader { return Reader{p: p} }

func (r *Reader) fail() { r.bad, r.off = true, len(r.p) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.off >= len(r.p) {
		r.fail()
		return 0
	}
	b := r.p[r.off]
	r.off++
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.p[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed (zig-zag) varint, as binary.AppendVarint writes it.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads a uvarint element count. Every element takes at least one
// byte, so a count larger than the bytes left marks the body bad (and reads
// as 0) before a caller sizes anything by it.
func (r *Reader) Count() int {
	rest := r.p[r.off:]
	v, n := binary.Uvarint(rest)
	if n <= 0 || v > uint64(len(rest)-n) {
		r.fail()
		return 0
	}
	r.off += n
	return int(v)
}

// field reads a uvarint length and that many bytes, aliasing the input. It
// checks the length as Count does, in the same call, so that String, the
// hot one, stays small enough to inline.
func (r *Reader) field() []byte {
	rest := r.p[r.off:]
	v, n := binary.Uvarint(rest)
	if n <= 0 || v > uint64(len(rest)-n) {
		r.fail()
		return nil
	}
	r.off += n + int(v)
	return rest[n : n+int(v)]
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.field()) }

// Bytes reads a length-prefixed byte field into a fresh slice that does not
// alias the input; an empty field reads as nil.
func (r *Reader) Bytes() []byte {
	f := r.field()
	if len(f) == 0 {
		return nil
	}
	b := make([]byte, len(f))
	copy(b, f)
	return b
}

// Rest returns every byte not yet read, aliasing the input, and leaves the
// Reader empty: the opaque tail of a layout that ends in one. After a bad
// read it is empty.
func (r *Reader) Rest() []byte {
	rest := r.p[r.off:]
	r.off = len(r.p)
	return rest
}

// Done reports whether the body was read exactly: every read well formed and
// no byte left over.
func (r *Reader) Done() bool { return !r.bad && r.off == len(r.p) }
