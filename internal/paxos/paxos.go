// Package paxos holds the protocol-pure half of Paxos Commit (Gray &
// Lamport, "Consensus on Transaction Commit"): ballot arithmetic, per-site
// acceptor state, the leader's phase-1 merge and phase-2 tallies, quorum
// math, and the wire/WAL codecs for the 1a/1b/2a/2b message bodies.
//
// Paxos Commit runs one consensus instance per cohort member's vote: a
// transaction over N participants has N instances, each choosing 'y' (the
// participant prepared) or 'n' (it refused, crashed, or was timed out). The
// transaction commits iff every instance chooses 'y'. The same N sites act
// as the 2F+1 acceptors (N = 2F+1), so the decision survives any F site
// failures and a dead coordinator costs a leader change, not a termination
// protocol.
//
// Ballot 0 is special (the phase-1a-skip optimization of §5): every
// acceptor is born having promised ballot 0, and instance i's ballot-0
// proposer is participant i itself. The fault-free path is therefore two
// message delays: the participant proposes its own vote straight to the
// acceptors (2a), and the acceptors' 2b messages land at the leader — no
// phase 1 at all. Higher ballots belong to recovery leaders and carry the
// proposing site's cohort index in the low bits, so two concurrent leaders
// can never collide on a ballot number.
//
// The engine half — message handling on the site's event loop, WAL
// forcing, leader election and timeout handling — lives in
// internal/engine/paxos.go.
package paxos

import (
	"encoding/binary"
	"errors"

	"nbcommit/internal/codec"
)

// MaxInstances bounds the per-transaction instance count; it matches the
// engine's cohort limit so instance bitsets fit in one word.
const MaxInstances = 64

// Ballot is a Paxos ballot number: the round in the high bits and the
// proposing leader's cohort index in the low 6 bits. Ballot 0 is the fast
// ballot implicitly promised by every acceptor, owned per-instance by the
// instance's own participant.
type Ballot uint64

const leaderBits = 6 // log2(MaxInstances)

// Leader returns the cohort index of the ballot's proposer. Meaningless for
// ballot 0, whose proposer is per-instance.
func (b Ballot) Leader() int { return int(b & (1<<leaderBits - 1)) }

// Round returns the escalation round (0 for the fast ballot).
func (b Ballot) Round() uint64 { return uint64(b) >> leaderBits }

// Next returns the smallest ballot owned by leader that is strictly greater
// than after — the ballot a recovery leader picks when it has observed
// after as the highest ballot in the system.
func Next(after Ballot, leader int) Ballot {
	return Ballot((after.Round()+1)<<leaderBits) | Ballot(leader&(1<<leaderBits-1))
}

// Values an instance can choose.
const (
	ValNone  byte = 0   // no value accepted yet
	ValYes   byte = 'y' // the participant prepared
	ValAbort byte = 'n' // refused, crashed before voting, or timed out
)

// Accepted is one acceptor's accepted (ballot, value) pair for one instance.
type Accepted struct {
	Bal Ballot
	Val byte
}

// Acceptor is one site's durable consensus state for one transaction: a
// single promise covering all instances (promising more instances than a
// leader asked about only restricts, never breaks, safety — and it keeps
// the promise a single WAL record) plus the accepted vector. The engine
// forces a WAL record before every mutation that answers a peer.
type Acceptor struct {
	Promised Ballot
	Accepts  []Accepted // indexed by cohort instance
}

// NewAcceptor sizes acceptor state for an n-instance transaction.
func NewAcceptor(n int) *Acceptor {
	return &Acceptor{Accepts: make([]Accepted, n)}
}

// Promise adopts ballot b if it is at least as high as the current promise,
// reporting whether the promise was given.
func (a *Acceptor) Promise(b Ballot) bool {
	if b < a.Promised {
		return false
	}
	a.Promised = b
	return true
}

// Accept records value val for instance inst at ballot b if the acceptor's
// promise allows it, reporting whether the acceptance happened.
func (a *Acceptor) Accept(b Ballot, inst int, val byte) bool {
	if b < a.Promised || inst < 0 || inst >= len(a.Accepts) {
		return false
	}
	a.Promised = b
	if b >= a.Accepts[inst].Bal {
		a.Accepts[inst] = Accepted{Bal: b, Val: val}
	}
	return true
}

// Tally counts one instance's 2b messages for the leader. Within one ballot
// an instance has a unique proposer, so all 2b messages for (ballot,
// instance) carry the same value; a higher-ballot 2b resets the count.
type Tally struct {
	Bal   Ballot
	Val   byte
	Votes uint64 // bitset of acceptor cohort indexes
}

// Add folds one acceptor's 2b into the tally and returns the count of
// distinct acceptors at the tally's current ballot.
func (t *Tally) Add(b Ballot, val byte, acceptor int) int {
	if acceptor < 0 || acceptor >= MaxInstances {
		return t.Count()
	}
	if b > t.Bal || (t.Val == ValNone && t.Votes == 0) {
		t.Bal, t.Val, t.Votes = b, val, 0
	}
	if b == t.Bal && val == t.Val {
		t.Votes |= 1 << uint(acceptor)
	}
	return t.Count()
}

// Count returns the number of acceptors tallied at the current ballot.
func (t *Tally) Count() int {
	n := 0
	for v := t.Votes; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Majority returns the quorum size for n acceptors.
func Majority(n int) int { return n/2 + 1 }

// Merge folds one acceptor's 1b accepted vector into the leader's per-
// instance view, keeping the highest-ballot acceptance per instance. This
// is the phase-2 value rule: an instance with any surviving acceptance must
// be re-proposed with that value; a free instance may be proposed ValAbort.
func Merge(into []Accepted, from []Accepted) {
	for i := range from {
		if i >= len(into) {
			return
		}
		if from[i].Val != ValNone && (into[i].Val == ValNone || from[i].Bal > into[i].Bal) {
			into[i] = from[i]
		}
	}
}

var errBadBody = errors.New("paxos: malformed message body")

// --- codecs ---
//
// All bodies are flat varint layouts (package codec): no reflection, no
// per-field allocations beyond the one output buffer. Cohort metadata
// (opaque to this package) rides at the tail of 1a/2a bodies so a site that
// has never heard of the transaction can still act as its acceptor; every
// other body must be read exactly.
//
//	1a:  ballot  meta...
//	1b:  promised  n  (ballot value-byte)[n]
//	2a:  ballot  instance  value-byte  meta...
//	2b:  ballot  instance  value-byte
//
// The 1a layout is also the RecPaxosPromise WAL payload, and the 2a layout
// the RecPaxosAccept payload.

// EncodeP1a encodes a phase-1a body: ballot + opaque cohort metadata.
func EncodeP1a(b Ballot, meta []byte) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+len(meta))
	buf = binary.AppendUvarint(buf, uint64(b))
	return append(buf, meta...)
}

// DecodeP1a decodes a phase-1a body, returning the ballot and the trailing
// metadata bytes.
func DecodeP1a(p []byte) (Ballot, []byte, error) {
	r := codec.NewReader(p)
	b := Ballot(r.Uvarint())
	meta := r.Rest()
	if !r.Done() {
		return 0, nil, errBadBody
	}
	return b, meta, nil
}

// EncodeP1b encodes a phase-1b body: the promised ballot plus the
// acceptor's full accepted vector.
func EncodeP1b(promised Ballot, accepts []Accepted) []byte {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+len(accepts)*(binary.MaxVarintLen64+1))
	buf = binary.AppendUvarint(buf, uint64(promised))
	buf = binary.AppendUvarint(buf, uint64(len(accepts)))
	for _, a := range accepts {
		buf = binary.AppendUvarint(buf, uint64(a.Bal))
		buf = append(buf, a.Val)
	}
	return buf
}

// DecodeP1b decodes a phase-1b body.
func DecodeP1b(p []byte) (Ballot, []Accepted, error) {
	r := codec.NewReader(p)
	promised := Ballot(r.Uvarint())
	n := r.Count()
	if n > MaxInstances {
		return 0, nil, errBadBody
	}
	accepts := make([]Accepted, n)
	for i := range accepts {
		accepts[i].Bal = Ballot(r.Uvarint())
		accepts[i].Val = r.Byte()
	}
	if !r.Done() {
		return 0, nil, errBadBody
	}
	return promised, accepts, nil
}

// EncodeP2a encodes a phase-2a body (and the RecPaxosAccept WAL payload):
// ballot, instance, value, trailing cohort metadata.
func EncodeP2a(b Ballot, inst int, val byte, meta []byte) []byte {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+1+len(meta))
	buf = binary.AppendUvarint(buf, uint64(b))
	buf = binary.AppendUvarint(buf, uint64(inst))
	buf = append(buf, val)
	return append(buf, meta...)
}

// DecodeP2a decodes a phase-2a body, returning ballot, instance, value and
// the trailing metadata bytes.
func DecodeP2a(p []byte) (Ballot, int, byte, []byte, error) {
	r := codec.NewReader(p)
	b, inst, val := Ballot(r.Uvarint()), r.Uvarint(), r.Byte()
	meta := r.Rest()
	if !r.Done() || inst >= MaxInstances {
		return 0, 0, 0, nil, errBadBody
	}
	return b, int(inst), val, meta, nil
}

// EncodeP2b encodes a phase-2b body: ballot, instance, value. A nack (the
// acceptor's promise outranks the 2a) carries the acceptor's promised
// ballot and ValNone, telling the proposer what it must outbid.
func EncodeP2b(b Ballot, inst int, val byte) []byte {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+1)
	buf = binary.AppendUvarint(buf, uint64(b))
	buf = binary.AppendUvarint(buf, uint64(inst))
	return append(buf, val)
}

// DecodeP2b decodes a phase-2b body.
func DecodeP2b(p []byte) (Ballot, int, byte, error) {
	r := codec.NewReader(p)
	b, inst, val := Ballot(r.Uvarint()), r.Uvarint(), r.Byte()
	if !r.Done() || inst >= MaxInstances {
		return 0, 0, 0, errBadBody
	}
	return b, int(inst), val, nil
}
