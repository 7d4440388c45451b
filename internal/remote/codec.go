package remote

import (
	"encoding/binary"
	"errors"
)

// Wire format of a KV-OP / KV-REPLY body, in the flat-varint style of
// transport/wire.go: every integer is a uvarint, every string is a uvarint
// length followed by its bytes, and nothing is self-describing.
//
//	request:  tagRequest  op|enlistBit  ReqID  MapVersion  SnapTS
//	          TxID  Key  Value  n  Participants[n]
//	reply:    tagReply    flags         ReqID  TS  Value-or-Err
//
// A reply carries a value or an error, never both: its one string is Err
// when the flags byte says so (a failed call's value is dropped anyway).
// Decoding never panics: every length is checked against what is left of
// the body, and a body that is short, long or wrongly tagged is errBadFrame.
const (
	tagRequest = 0x01
	tagReply   = 0x02

	enlistBit  = 0x80 // high bit of a request's op byte: Request.Enlist
	replyIsErr = 0x01 // reply flags: the string is Reply.Err, not Reply.Value
)

var errBadFrame = errors.New("remote: malformed frame")

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// encodeRequest renders req in one allocation, sized by an upper bound on the
// varints so that the appends never regrow it.
func encodeRequest(req Request) []byte {
	op := byte(req.Op)
	if req.Enlist {
		op |= enlistBit
	}
	buf := make([]byte, 0, 2+binary.MaxVarintLen64*(7+len(req.Participants))+len(req.TxID)+len(req.Key)+len(req.Value))
	buf = append(buf, tagRequest, op)
	buf = binary.AppendUvarint(buf, req.ReqID)
	buf = binary.AppendUvarint(buf, req.MapVersion)
	buf = binary.AppendUvarint(buf, req.SnapTS)
	buf = appendString(buf, req.TxID)
	buf = appendString(buf, req.Key)
	buf = appendString(buf, req.Value)
	buf = binary.AppendUvarint(buf, uint64(len(req.Participants)))
	for _, site := range req.Participants {
		buf = binary.AppendUvarint(buf, uint64(site))
	}
	return buf
}

func encodeReply(rep Reply) []byte {
	flags, str := byte(0), rep.Value
	if rep.Err != "" {
		flags, str = replyIsErr, rep.Err
	}
	buf := make([]byte, 0, 2+binary.MaxVarintLen64*3+len(str))
	buf = append(buf, tagReply, flags)
	buf = binary.AppendUvarint(buf, rep.ReqID)
	buf = binary.AppendUvarint(buf, rep.TS)
	return appendString(buf, str)
}

// reader consumes a body front to back. The first short read sets bad and
// every later read returns zero, so a decoder checks once, at the end.
type reader struct {
	p   []byte
	bad bool
}

func (r *reader) byte() byte {
	if len(r.p) == 0 {
		r.bad = true
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return b
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.p)
	if n <= 0 {
		r.bad, r.p = true, nil
		return 0
	}
	r.p = r.p[n:]
	return v
}

func (r *reader) string() string {
	n := r.uvarint()
	if n > uint64(len(r.p)) {
		r.bad, r.p = true, nil
		return ""
	}
	s := string(r.p[:n])
	r.p = r.p[n:]
	return s
}

// done reports whether the body was consumed exactly.
func (r *reader) done() bool { return !r.bad && len(r.p) == 0 }

// DecodeRequest parses a KV-OP body.
func DecodeRequest(body []byte) (Request, error) {
	r := reader{p: body}
	tag, op := r.byte(), r.byte()
	req := Request{Op: Op(op &^ enlistBit), Enlist: op&enlistBit != 0}
	req.ReqID = r.uvarint()
	req.MapVersion = r.uvarint()
	req.SnapTS = r.uvarint()
	req.TxID = r.string()
	req.Key = r.string()
	req.Value = r.string()
	n := r.uvarint()
	if tag != tagRequest || n > uint64(len(r.p)) { // a site takes at least one byte
		return Request{}, errBadFrame
	}
	if n > 0 {
		req.Participants = make([]int, n)
		for i := range req.Participants {
			req.Participants[i] = int(r.uvarint())
		}
	}
	if !r.done() {
		return Request{}, errBadFrame
	}
	return req, nil
}

// DecodeReply parses a KV-REPLY body.
func DecodeReply(body []byte) (Reply, error) {
	r := reader{p: body}
	tag, flags := r.byte(), r.byte()
	rep := Reply{ReqID: r.uvarint(), TS: r.uvarint()}
	str := r.string()
	if tag != tagReply || flags&^replyIsErr != 0 || !r.done() {
		return Reply{}, errBadFrame
	}
	if flags&replyIsErr != 0 {
		rep.Err = str
	} else {
		rep.Value = str
	}
	return rep, nil
}
