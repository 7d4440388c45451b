package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"sync"
)

// Binary wire codec (version 1), the only encoding a TCPEndpoint speaks.
//
// The commit protocols this repo reproduces are priced in messages and
// message delays, so the per-message cost of the wire is the unit of account
// for everything the benchmarks measure. This codec writes a Message as a
// handful of varints, with no type preamble and no reflection.
//
// A connection opens with a 4-byte magic followed by a sequence of frames:
//
//	uvarint  frame length (count of bytes that follow)
//	byte     codec version (wireV1)
//	varint   From
//	varint   To
//	uvarint  len(Kind)  then Kind bytes
//	uvarint  len(TxID)  then TxID bytes
//	uvarint  len(Body)  then Body bytes
//
// A connection without the magic, or a frame that does not parse (including
// one whose version byte is not wireV1), is closed by the receiver.

// wireMagic prefixes every connection.
var wireMagic = [4]byte{0xFB, 'N', 'B', 'C'}

const (
	wireV1 = 1
	// maxWireFrame bounds a frame so a corrupt or hostile length prefix
	// cannot make the reader allocate without bound.
	maxWireFrame = 16 << 20
)

var (
	errFrameLength    = errors.New("transport: wire frame exceeds size bound")
	errMalformedFrame = errors.New("transport: malformed wire frame")
)

// wireBufPool recycles encode buffers across writer flushes and decode
// scratch across connections, so the steady-state hot path allocates only
// the decoded Message fields themselves.
var wireBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func varintLen(x int64) int { return uvarintLen(uint64(x)<<1 ^ uint64(x>>63)) }

// appendMessage appends m's wire frame to buf and returns the extended
// slice. The frame length is computed up front, so encoding is a single
// append pass with no intermediate buffer.
func appendMessage(buf []byte, m Message) []byte {
	n := 1 + varintLen(int64(m.From)) + varintLen(int64(m.To)) +
		uvarintLen(uint64(len(m.Kind))) + len(m.Kind) +
		uvarintLen(uint64(len(m.TxID))) + len(m.TxID) +
		uvarintLen(uint64(len(m.Body))) + len(m.Body)
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = append(buf, wireV1)
	buf = binary.AppendVarint(buf, int64(m.From))
	buf = binary.AppendVarint(buf, int64(m.To))
	buf = binary.AppendUvarint(buf, uint64(len(m.Kind)))
	buf = append(buf, m.Kind...)
	buf = binary.AppendUvarint(buf, uint64(len(m.TxID)))
	buf = append(buf, m.TxID...)
	buf = binary.AppendUvarint(buf, uint64(len(m.Body)))
	buf = append(buf, m.Body...)
	return buf
}

// readWireMessage reads one frame from br, reusing scratch for the frame
// body, and returns the decoded message plus the (possibly grown) scratch.
func readWireMessage(br *bufio.Reader, scratch []byte) (Message, []byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return Message{}, scratch, err
	}
	if n > maxWireFrame {
		return Message{}, scratch, errFrameLength
	}
	if uint64(cap(scratch)) < n {
		scratch = make([]byte, n)
	}
	p := scratch[:n]
	if _, err := io.ReadFull(br, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Message{}, scratch, err
	}
	m, err := decodeWirePayload(p)
	return m, scratch, err
}

// decodeWirePayload parses one frame body (everything after the length
// prefix). It never panics on garbage: every length is bounds-checked
// against the remaining payload.
func decodeWirePayload(p []byte) (Message, error) {
	if len(p) == 0 || p[0] != wireV1 {
		return Message{}, errMalformedFrame
	}
	p = p[1:]
	from, p, err := readWireVarint(p)
	if err != nil {
		return Message{}, err
	}
	to, p, err := readWireVarint(p)
	if err != nil {
		return Message{}, err
	}
	kind, p, err := readWireString(p)
	if err != nil {
		return Message{}, err
	}
	txid, p, err := readWireString(p)
	if err != nil {
		return Message{}, err
	}
	body, p, err := readWireBytes(p)
	if err != nil {
		return Message{}, err
	}
	if len(p) != 0 {
		return Message{}, errMalformedFrame
	}
	return Message{From: int(from), To: int(to), Kind: kind, TxID: txid, Body: body}, nil
}

func readWireVarint(p []byte) (int64, []byte, error) {
	v, n := binary.Varint(p)
	if n <= 0 {
		return 0, p, errMalformedFrame
	}
	return v, p[n:], nil
}

func readWireUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, errMalformedFrame
	}
	return v, p[n:], nil
}

func readWireString(p []byte) (string, []byte, error) {
	n, p, err := readWireUvarint(p)
	if err != nil || uint64(len(p)) < n {
		return "", p, errMalformedFrame
	}
	return string(p[:n]), p[n:], nil
}

// readWireBytes copies the field out of the frame scratch: the returned
// slice escapes into the delivered Message and must not alias the reusable
// buffer.
func readWireBytes(p []byte) ([]byte, []byte, error) {
	n, p, err := readWireUvarint(p)
	if err != nil || uint64(len(p)) < n {
		return nil, p, errMalformedFrame
	}
	if n == 0 {
		return nil, p, nil
	}
	b := make([]byte, n)
	copy(b, p[:n])
	return b, p[n:], nil
}
