package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"sync"

	"nbcommit/internal/codec"
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
	buf = codec.AppendString(buf, m.Kind)
	buf = codec.AppendString(buf, m.TxID)
	return codec.AppendBytes(buf, m.Body)
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
// against the remaining payload. Body is copied out of p, which is the
// reader's reusable frame scratch.
func decodeWirePayload(p []byte) (Message, error) {
	r := codec.NewReader(p)
	if r.Byte() != wireV1 {
		return Message{}, errMalformedFrame
	}
	m := Message{From: int(r.Varint()), To: int(r.Varint()), Kind: r.String(), TxID: r.String(), Body: r.Bytes()}
	if !r.Done() {
		return Message{}, errMalformedFrame
	}
	return m, nil
}
