package wal

import "fmt"

// TxStatus is the commit-protocol position of a transaction as reconstructed
// from the log during recovery.
type TxStatus int

const (
	// StatusUnknown: no record seen (not a valid replay result).
	StatusUnknown TxStatus = iota
	// StatusBegun: a coordinator started the protocol but recorded no
	// outcome; upon recovery it aborts (the failure happened before its
	// commit point).
	StatusBegun
	// StatusVotedYes: the participant voted yes and crashed before learning
	// the outcome; it is in doubt and must run the recovery protocol.
	StatusVotedYes
	// StatusVotedNo: the participant voted no; the transaction aborted.
	StatusVotedNo
	// StatusPrepared: the participant reached the buffer state p; still in
	// doubt, but any operational 3PC cohort can resolve it.
	StatusPrepared
	// StatusCommitted: the commit record was forced; redo and finish.
	StatusCommitted
	// StatusAborted: the abort record was forced; undo and finish.
	StatusAborted
	// StatusEnded: fully applied; nothing to do. TxImage.Committed keeps
	// the outcome.
	StatusEnded
)

// String names the status.
func (s TxStatus) String() string {
	switch s {
	case StatusBegun:
		return "begun"
	case StatusVotedYes:
		return "voted-yes"
	case StatusVotedNo:
		return "voted-no"
	case StatusPrepared:
		return "prepared"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	case StatusEnded:
		return "ended"
	default:
		return fmt.Sprintf("TxStatus(%d)", int(s))
	}
}

// inDoubt reports whether a recovering site cannot decide the transaction
// from its own log and must consult operational sites.
func (s TxStatus) inDoubt() bool { return s == StatusVotedYes || s == StatusPrepared }

// final reports whether the outcome is already durable locally.
func (s TxStatus) final() bool {
	return s == StatusCommitted || s == StatusAborted || s == StatusEnded
}

// TxImage is the replayed per-transaction state.
type TxImage struct {
	TxID   string
	Status TxStatus
	// Begin holds the payload of the begin record (e.g. the participant
	// list), if one was logged at this site.
	Begin []byte
	// Last holds the payload of the most recent record.
	Last []byte
	// LastLSN is the LSN of the most recent record for the transaction.
	LastLSN uint64
	// Coordinator reports whether this site logged the begin record (i.e.
	// acted as the transaction's coordinator).
	Coordinator bool
	// Committed reports whether a commit record was logged. It survives the
	// end record, so an ended transaction committed iff it is set.
	Committed bool
}

// Boot forces one RecBoot record and returns the site's incarnation: the
// number of boot records the log then holds, 1 on first start and one more
// on each restart. A node stamps the identifiers it mints with it, so a
// restarted node never reuses one that its own log or its peers still hold.
// It uses no clock and no randomness, so a replayed log yields the same
// incarnation.
func Boot(l Log) (uint64, error) {
	recs, err := l.Records()
	if err != nil {
		return 0, err
	}
	n := uint64(1)
	for _, r := range recs {
		if r.Type == RecBoot {
			n++
		}
	}
	if _, err := l.Append(Record{Type: RecBoot}); err != nil {
		return 0, err
	}
	return n, nil
}

// Replay folds a log's records into per-transaction images, implementing the
// local half of the recovery protocol: after Replay, transactions whose
// status is InDoubt must be resolved by asking operational sites; Begun
// coordinators abort; Final transactions need only local redo/undo.
func Replay(recs []Record) map[string]*TxImage {
	out := map[string]*TxImage{}
	for _, r := range recs {
		if r.Type == RecPaxosPromise || r.Type == RecPaxosAccept || r.Type == RecBoot {
			// Paxos consensus records carry acceptor state, not a protocol
			// image; the engine rebuilds them from the raw records. Folding
			// them here would clobber Last, which in-doubt recovery decodes
			// as the vote payload. Boot records belong to no transaction,
			// so compaction, which keeps whatever has no image, keeps them.
			continue
		}
		img, ok := out[r.TxID]
		if !ok {
			img = &TxImage{TxID: r.TxID}
			out[r.TxID] = img
		}
		img.Last = r.Payload
		img.LastLSN = r.LSN
		switch r.Type {
		case RecBegin:
			img.Coordinator = true
			img.Begin = r.Payload
			if img.Status == StatusUnknown {
				img.Status = StatusBegun
			}
		case RecVoteYes:
			img.Status = StatusVotedYes
		case RecVoteNo:
			img.Status = StatusVotedNo
		case RecPrepared:
			img.Status = StatusPrepared
		case RecCommitted:
			img.Status = StatusCommitted
			img.Committed = true
		case RecAborted:
			img.Status = StatusAborted
		case RecEnd:
			img.Status = StatusEnded
		}
	}
	return out
}
