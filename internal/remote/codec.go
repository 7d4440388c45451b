package remote

import (
	"encoding/binary"
	"errors"

	"nbcommit/internal/codec"
)

// Wire format of a KV-OP / KV-REPLY body, in the flat-varint layout of
// package codec: every integer is a uvarint, every string is a uvarint
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
	buf = codec.AppendString(buf, req.TxID)
	buf = codec.AppendString(buf, req.Key)
	buf = codec.AppendString(buf, req.Value)
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
	return codec.AppendString(buf, str)
}

// DecodeRequest parses a KV-OP body.
func DecodeRequest(body []byte) (Request, error) {
	r := codec.NewReader(body)
	tag, op := r.Byte(), r.Byte()
	req := Request{Op: Op(op &^ enlistBit), Enlist: op&enlistBit != 0}
	req.ReqID = r.Uvarint()
	req.MapVersion = r.Uvarint()
	req.SnapTS = r.Uvarint()
	req.TxID = r.String()
	req.Key = r.String()
	req.Value = r.String()
	if n := r.Count(); n > 0 {
		req.Participants = make([]int, n)
		for i := range req.Participants {
			req.Participants[i] = int(r.Uvarint())
		}
	}
	if tag != tagRequest || !r.Done() {
		return Request{}, errBadFrame
	}
	return req, nil
}

// DecodeReply parses a KV-REPLY body.
func DecodeReply(body []byte) (Reply, error) {
	r := codec.NewReader(body)
	tag, flags := r.Byte(), r.Byte()
	rep := Reply{ReqID: r.Uvarint(), TS: r.Uvarint()}
	str := r.String()
	if tag != tagReply || flags&^replyIsErr != 0 || !r.Done() {
		return Reply{}, errBadFrame
	}
	if flags&replyIsErr != 0 {
		rep.Err = str
	} else {
		rep.Value = str
	}
	return rep, nil
}
