// Package kv implements a per-site transactional key-value store with strict
// two-phase locking for writers and multi-version storage for readers. It is
// the local resource manager beneath the commit protocols: a participant
// votes YES by preparing a transaction here, and the paper's motivation for
// unilateral abort — "the resolution of a deadlock, when a locking scheme is
// adopted" — appears as lock-wait timeouts that force a NO vote.
//
// Committed values are kept as per-key version chains stamped with a
// site-local commit timestamp allocated at decision-apply time. Prepare
// reserves a timestamp for the transaction and records it in an in-doubt set;
// the watermark (the oldest in-doubt prepare) bounds snapshot reads so a
// snapshot can never read around an unresolved write: snapshots are taken at
// StableTS = min(latest commit, oldest in-doubt prepare − 1), below which no
// future commit can land because timestamps are allocated monotonically.
// Snapshot reads therefore never block on writer locks and never observe a
// prepared-but-undecided write set.
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"nbcommit/internal/clock"
	"nbcommit/internal/codec"
)

// Common errors.
var (
	// ErrLockTimeout means a lock could not be acquired in time; the caller
	// should abort the transaction (and vote NO). This is the deadlock
	// resolution strategy: timeouts break wait cycles.
	ErrLockTimeout = errors.New("kv: lock wait timed out")
	// ErrWaitDie means the wait-die policy killed a younger transaction
	// that wanted a lock held by an older one; the caller should abort and
	// retry with a new transaction (which will be older the second time
	// relative to new arrivals).
	ErrWaitDie = errors.New("kv: wait-die: younger transaction must abort")
	// ErrNoTxn means the transaction is unknown at this store.
	ErrNoTxn = errors.New("kv: no such transaction")
	// ErrTxnExists means Begin was called twice for the same ID.
	ErrTxnExists = errors.New("kv: transaction already exists")
	// ErrNotActive means the operation requires an active (unprepared)
	// transaction.
	ErrNotActive = errors.New("kv: transaction is not active")
	// ErrNotFound means the key does not exist.
	ErrNotFound = errors.New("kv: key not found")
	// ErrSnapshotTooOld means a snapshot read asked for a timestamp whose
	// versions were already garbage-collected. Pin snapshots with
	// AcquireSnapshot to hold the GC floor, or retry at a fresh timestamp.
	ErrSnapshotTooOld = errors.New("kv: snapshot too old: versions garbage-collected")
)

type txnState int

const (
	stateActive txnState = iota
	statePrepared
)

type lockMode int

const (
	lockShared lockMode = iota
	lockExclusive
)

// WriteOp is one staged mutation; a transaction's write set is its redo
// image, returned by Prepare for the engine to force to the WAL.
type WriteOp struct {
	Key    string
	Value  string
	Delete bool
}

// writesFormatV2 tags a write set: per op, three uvarint-prefixed fields —
// key, value, and a flags varint that carries versioning metadata (bit 0:
// delete; remaining bits reserved for future per-op version hints). It is
// the only format any log holds.
const writesFormatV2 = 0x02

// opFlagDelete marks a tombstone in the v2 per-op flags varint.
const opFlagDelete = 1 << 0

// EncodeWrites serializes a write set for a WAL payload. The format is a tag
// byte, a uvarint op count, then per op THREE uvarint-prefixed fields:
// length-prefixed key, length-prefixed value, and a flags varint. Prepare
// runs this for every transaction, so the capacity reservation below must
// cover the worst case — an append-driven resize on the prepare hot path
// would show up directly in commit latency. TestEncodeWritesNoResize pins
// the math.
func EncodeWrites(ops []WriteOp) []byte {
	size := 1 + binary.MaxVarintLen64
	for _, op := range ops {
		// Three varint-prefixed fields per op: key length, value length,
		// and the flags varint itself.
		size += 3*binary.MaxVarintLen64 + len(op.Key) + len(op.Value)
	}
	buf := make([]byte, 1, size)
	buf[0] = writesFormatV2
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		buf = codec.AppendString(buf, op.Key)
		buf = codec.AppendString(buf, op.Value)
		var flags uint64
		if op.Delete {
			flags |= opFlagDelete
		}
		buf = binary.AppendUvarint(buf, flags)
	}
	return buf
}

var errMalformedWrites = errors.New("kv: decode writes: malformed payload")

// DecodeWrites parses a write set from a WAL payload. A payload that does
// not start with writesFormatV2, or is not read exactly, is an error.
func DecodeWrites(p []byte) ([]WriteOp, error) {
	if len(p) == 0 {
		return nil, nil
	}
	if p[0] != writesFormatV2 {
		return nil, fmt.Errorf("kv: decode writes: unknown format tag %#x", p[0])
	}
	r := codec.NewReader(p[1:])
	ops := make([]WriteOp, r.Count())
	for i := range ops {
		ops[i].Key = r.String()
		ops[i].Value = r.String()
		ops[i].Delete = r.Uvarint()&opFlagDelete != 0
	}
	if !r.Done() {
		return nil, errMalformedWrites
	}
	return ops, nil
}

type txn struct {
	id     string
	seq    uint64 // begin order: smaller is older (wait-die priority)
	state  txnState
	prepTS uint64             // timestamp reserved at Prepare (in-doubt marker)
	writes map[string]WriteOp // staged, keyed by key
	order  []string           // staging order for deterministic write sets
	locks  map[string]lockMode
}

type lockEntry struct {
	holders map[string]lockMode
}

// version is one committed value of a key. Chains are kept in ascending
// commit-timestamp order; the last element is the latest committed state.
type version struct {
	ts      uint64
	value   string
	deleted bool // tombstone: the key did not exist at this version
}

// DeadlockPolicy selects how lock waits that might form cycles are broken.
type DeadlockPolicy int

const (
	// TimeoutPolicy (default): waiters give up after LockTimeout. Simple,
	// but a real deadlock costs a full timeout and may kill both parties.
	TimeoutPolicy DeadlockPolicy = iota
	// WaitDiePolicy: a transaction may wait only for locks held exclusively
	// by younger transactions; wanting a lock held by an older transaction
	// kills the requester immediately (ErrWaitDie). Deadlock-free by
	// construction, no timeout latency, but more aborts under contention.
	WaitDiePolicy
)

// Store is a transactional key-value store. The zero value is not usable;
// call NewStore.
type Store struct {
	mu          sync.Mutex
	data        map[string][]version // per-key version chains, ascending ts
	locks       map[string]*lockEntry
	txns        map[string]*txn
	waitCh      chan struct{} // closed and replaced on every lock release
	lockTimeout time.Duration
	policy      DeadlockPolicy
	clk         clock.Clock
	beginSeq    uint64

	ts         uint64            // monotone timestamp counter (prepare + commit stamps)
	lastCommit uint64            // newest commit timestamp applied
	inDoubt    map[string]uint64 // prepared-but-undecided txid → reserved prepare ts
	snaps      map[uint64]int    // pinned snapshot ts → refcount (GC floor)
	gcFloor    uint64            // versions at or below are merged; older reads fail
}

// Options configures a Store.
type Options struct {
	// LockTimeout bounds lock waits; expiry resolves deadlocks by forcing
	// the waiter to abort. Zero means the default budget's LockWait.
	LockTimeout time.Duration
	// Policy selects the deadlock handling strategy.
	Policy DeadlockPolicy
	// Clock is the time source for lock-wait deadlines. Nil means the wall
	// clock; deterministic simulation injects a virtual clock so deadlock
	// resolution timing replays from a seed.
	Clock clock.Clock
}

// NewStore returns an empty store.
func NewStore(opts Options) *Store {
	to := opts.LockTimeout
	if to == 0 {
		to = clock.NewBudget(0).LockWait
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.Wall
	}
	return &Store{
		data:        map[string][]version{},
		locks:       map[string]*lockEntry{},
		txns:        map[string]*txn{},
		waitCh:      make(chan struct{}),
		lockTimeout: to,
		policy:      opts.Policy,
		clk:         clk,
		inDoubt:     map[string]uint64{},
		snaps:       map[uint64]int{},
	}
}

// Begin starts a transaction.
func (s *Store) Begin(txid string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.txns[txid]; ok {
		return fmt.Errorf("%w: %s", ErrTxnExists, txid)
	}
	s.beginSeq++
	s.txns[txid] = &txn{
		id:     txid,
		seq:    s.beginSeq,
		writes: map[string]WriteOp{},
		locks:  map[string]lockMode{},
	}
	return nil
}

// grantable reports whether tx may take the lock on key in the given mode.
// Requires s.mu held.
func (s *Store) grantable(key string, txid string, mode lockMode) bool {
	e := s.locks[key]
	if e == nil || len(e.holders) == 0 {
		return true
	}
	if held, ok := e.holders[txid]; ok && len(e.holders) == 1 {
		_ = held // sole holder may upgrade or re-take
		return true
	}
	if mode == lockExclusive {
		return false
	}
	for _, m := range e.holders {
		if m == lockExclusive {
			return false
		}
	}
	return true
}

// mustDie reports whether, under wait-die, t is forbidden to wait for the
// current holders of key (some conflicting holder is older than t).
// Requires s.mu held.
func (s *Store) mustDie(t *txn, key string, mode lockMode) bool {
	e := s.locks[key]
	if e == nil {
		return false
	}
	for holder, hm := range e.holders {
		if holder == t.id {
			continue
		}
		if mode == lockShared && hm == lockShared {
			continue // no conflict with a fellow reader
		}
		if h := s.txns[holder]; h != nil && h.seq < t.seq {
			return true // conflicting older holder: the younger dies
		}
	}
	return false
}

// acquire blocks until the lock is granted or the store's lock timeout
// expires (deadlock resolution). Deadlines and timers come from the injected
// clock so lock-wait timing is deterministic under simulation.
func (s *Store) acquire(t *txn, key string, mode lockMode) error {
	deadline := s.clk.Now().Add(s.lockTimeout)
	s.mu.Lock()
	for {
		if t.state != stateActive {
			s.mu.Unlock()
			return ErrNotActive
		}
		if s.grantable(key, t.id, mode) {
			e := s.locks[key]
			if e == nil {
				e = &lockEntry{holders: map[string]lockMode{}}
				s.locks[key] = e
			}
			if cur, held := e.holders[t.id]; !held || (cur == lockShared && mode == lockExclusive) {
				e.holders[t.id] = mode // grant or upgrade
			}
			if prev, held := t.locks[key]; !held || (prev == lockShared && mode == lockExclusive) {
				t.locks[key] = mode
			}
			s.mu.Unlock()
			return nil
		}
		if s.policy == WaitDiePolicy && s.mustDie(t, key, mode) {
			s.mu.Unlock()
			return fmt.Errorf("%w (key %s)", ErrWaitDie, key)
		}
		ch := s.waitCh
		s.mu.Unlock()
		remain := deadline.Sub(s.clk.Now())
		if remain <= 0 {
			return ErrLockTimeout
		}
		expired := make(chan struct{})
		timer := s.clk.AfterFunc(remain, func() { close(expired) })
		select {
		case <-ch:
			timer.Stop()
		case <-expired:
			return ErrLockTimeout
		}
		s.mu.Lock()
	}
}

// releaseLocks drops every lock held by t and wakes waiters. Requires s.mu
// held.
func (s *Store) releaseLocks(t *txn) {
	for key := range t.locks {
		if e := s.locks[key]; e != nil {
			delete(e.holders, t.id)
			if len(e.holders) == 0 {
				delete(s.locks, key)
			}
		}
	}
	t.locks = map[string]lockMode{}
	close(s.waitCh)
	s.waitCh = make(chan struct{})
}

func (s *Store) activeTxn(txid string) (*txn, error) {
	t, ok := s.txns[txid]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTxn, txid)
	}
	if t.state != stateActive {
		return nil, fmt.Errorf("%w: %s", ErrNotActive, txid)
	}
	return t, nil
}

// latest returns the newest committed version of key, or nil. Requires s.mu
// held.
func (s *Store) latest(key string) *version {
	vs := s.data[key]
	if len(vs) == 0 {
		return nil
	}
	return &vs[len(vs)-1]
}

// Get reads key under a shared lock, observing the transaction's own staged
// writes first: a GET after the transaction's own PUT returns the staged
// value, and a GET after its own DELETE returns ErrNotFound, regardless of
// the committed version underneath.
func (s *Store) Get(txid, key string) (string, error) {
	s.mu.Lock()
	t, err := s.activeTxn(txid)
	s.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := s.acquire(t, key, lockShared); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if op, ok := t.writes[key]; ok {
		if op.Delete {
			return "", fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return op.Value, nil
	}
	v := s.latest(key)
	if v == nil || v.deleted {
		return "", fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return v.value, nil
}

// Put stages a write under an exclusive lock.
func (s *Store) Put(txid, key, value string) error {
	return s.stage(txid, WriteOp{Key: key, Value: value})
}

// Delete stages a deletion under an exclusive lock.
func (s *Store) Delete(txid, key string) error {
	return s.stage(txid, WriteOp{Key: key, Delete: true})
}

func (s *Store) stage(txid string, op WriteOp) error {
	s.mu.Lock()
	t, err := s.activeTxn(txid)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err := s.acquire(t, op.Key, lockExclusive); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := t.writes[op.Key]; !ok {
		t.order = append(t.order, op.Key)
	}
	t.writes[op.Key] = op
	return nil
}

// Prepare moves the transaction into the prepared state and returns its
// write set (the redo image to force to the WAL before voting YES). A
// prepared transaction keeps its locks and can no longer be mutated; only
// Commit or Abort resolve it. Prepare also reserves a timestamp and records
// the transaction as in-doubt: until the decision applies, the snapshot
// watermark stays below this reservation, so no snapshot can read around the
// unresolved write set.
func (s *Store) Prepare(txid string) ([]WriteOp, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.activeTxn(txid)
	if err != nil {
		return nil, err
	}
	t.state = statePrepared
	s.ts++
	t.prepTS = s.ts
	s.inDoubt[txid] = t.prepTS
	ops := make([]WriteOp, 0, len(t.order))
	for _, k := range t.order {
		ops = append(ops, t.writes[k])
	}
	return ops, nil
}

// applyLocked appends one committed version. Requires s.mu held.
func (s *Store) applyLocked(op WriteOp, cts uint64) {
	vs := s.data[op.Key]
	if op.Delete && len(vs) == 0 {
		return // deleting a key that never existed needs no tombstone
	}
	s.data[op.Key] = append(vs, version{ts: cts, value: op.Value, deleted: op.Delete})
}

// Commit applies the staged writes as a new version of every written key,
// stamped with a commit timestamp allocated here (decision-apply time), and
// releases locks. Committing an unknown transaction is an error; committing
// an active (unprepared) transaction is allowed for single-site use.
func (s *Store) Commit(txid string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[txid]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTxn, txid)
	}
	s.ts++
	cts := s.ts
	for _, k := range t.order {
		s.applyLocked(t.writes[k], cts)
	}
	s.lastCommit = cts
	delete(s.inDoubt, txid)
	s.releaseLocks(t)
	delete(s.txns, txid)
	return nil
}

// Abort discards the staged writes, clears any in-doubt reservation, and
// releases locks. Aborting an unknown transaction is a no-op (idempotent
// aborts simplify recovery).
func (s *Store) Abort(txid string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inDoubt, txid)
	t, ok := s.txns[txid]
	if !ok {
		return nil
	}
	s.releaseLocks(t)
	delete(s.txns, txid)
	return nil
}

// ApplyRedo applies a recovered write set directly (recovery redo of a
// transaction whose commit record is in the log but whose effects were lost
// with volatile state). Each redo gets a fresh commit timestamp; replaying
// in log order therefore reproduces the pre-crash version order.
func (s *Store) ApplyRedo(ops []WriteOp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ts++
	cts := s.ts
	for _, op := range ops {
		s.applyLocked(op, cts)
	}
	s.lastCommit = cts
}

// stableTSLocked computes the newest timestamp safe to read: everything at
// or below it is final. Requires s.mu held.
func (s *Store) stableTSLocked() uint64 {
	st := s.lastCommit
	for _, p := range s.inDoubt {
		if p-1 < st {
			st = p - 1
		}
	}
	return st
}

// StableTS returns the newest snapshot-safe timestamp:
// min(latest commit, oldest in-doubt prepare − 1). The counter is monotone
// and every in-doubt transaction reserved a timestamp above this value, so
// no future commit can ever land at or below StableTS — a snapshot taken
// here is final.
func (s *Store) StableTS() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stableTSLocked()
}

// Watermark returns the oldest in-doubt prepare timestamp, or 0 when no
// transaction is prepared-but-undecided. Snapshots never read at or above a
// nonzero watermark.
func (s *Store) Watermark() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var w uint64
	for _, p := range s.inDoubt {
		if w == 0 || p < w {
			w = p
		}
	}
	return w
}

// CommitTS returns the newest commit timestamp applied at this store.
func (s *Store) CommitTS() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastCommit
}

// AcquireSnapshot pins the current stable timestamp against garbage
// collection and returns it. Reads via ReadAt at the returned timestamp stay
// valid until ReleaseSnapshot. Pins are refcounted, so concurrent snapshots
// at the same timestamp share one entry.
func (s *Store) AcquireSnapshot() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.stableTSLocked()
	s.snaps[ts]++
	return ts
}

// ReleaseSnapshot drops a pin taken by AcquireSnapshot. Releasing an
// unknown timestamp is a no-op.
func (s *Store) ReleaseSnapshot(ts uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.snaps[ts]; ok {
		if n <= 1 {
			delete(s.snaps, ts)
		} else {
			s.snaps[ts] = n - 1
		}
	}
}

// ReadAt returns the value of key as of snapshot timestamp ts: the newest
// version at or below ts. It takes no locks beyond the store mutex — a
// snapshot read never waits for a writer and never sees a
// prepared-but-undecided write. Reading below the GC floor returns
// ErrSnapshotTooOld.
func (s *Store) ReadAt(ts uint64, key string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readAtLocked(ts, key)
}

func (s *Store) readAtLocked(ts uint64, key string) (string, error) {
	if ts < s.gcFloor {
		return "", fmt.Errorf("%w: ts %d < floor %d", ErrSnapshotTooOld, ts, s.gcFloor)
	}
	vs := s.data[key]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].ts > ts {
			continue
		}
		if vs[i].deleted {
			return "", fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return vs[i].value, nil
	}
	return "", fmt.Errorf("%w: %s", ErrNotFound, key)
}

// SnapshotGet is the one-shot snapshot read: it resolves the current stable
// timestamp and reads key at it atomically, returning the timestamp used so
// a session can pin later reads to the same snapshot. No transaction, no
// locks, no commit protocol.
func (s *Store) SnapshotGet(key string) (string, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.stableTSLocked()
	v, err := s.readAtLocked(ts, key)
	return v, ts, err
}

// GC merges version chains up to the garbage-collection floor — the oldest
// timestamp any pinned snapshot (or the stable timestamp, if lower) can
// still read. For every key it drops versions superseded by a newer version
// at or below the floor, and removes keys whose entire surviving history is
// a tombstone. It returns surviving and dropped version counts.
func (s *Store) GC() (kept, dropped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	floor := s.stableTSLocked()
	for ts := range s.snaps {
		if ts < floor {
			floor = ts
		}
	}
	if floor < s.gcFloor {
		floor = s.gcFloor // the floor never moves backwards
	}
	s.gcFloor = floor
	for k, vs := range s.data {
		// base: newest version at or below the floor; everything before it
		// is unreadable by any permissible snapshot.
		base := 0
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].ts <= floor {
				base = i
				break
			}
		}
		if base == 0 && !(len(vs) == 1 && vs[0].deleted && vs[0].ts <= floor) {
			kept += len(vs)
			continue
		}
		if len(vs)-base == 1 && vs[base].deleted && vs[base].ts <= floor {
			// Sole surviving version is a settled tombstone: drop the key.
			dropped += len(vs)
			delete(s.data, k)
			continue
		}
		nv := make([]version, len(vs)-base)
		copy(nv, vs[base:])
		s.data[k] = nv
		dropped += base
		kept += len(nv)
	}
	return kept, dropped
}

// VersionStats reports the number of keys and total retained versions, for
// observability and GC tests.
func (s *Store) VersionStats() (keys, versions int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, vs := range s.data {
		versions += len(vs)
	}
	return len(s.data), versions
}

// Read returns the committed value of key, outside any transaction.
func (s *Store) Read(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.latest(key)
	if v == nil || v.deleted {
		return "", false
	}
	return v.value, true
}

// Snapshot copies the latest committed state, for tests and examples.
func (s *Store) Snapshot() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.data))
	for k, vs := range s.data {
		if n := len(vs); n > 0 && !vs[n-1].deleted {
			out[k] = vs[n-1].value
		}
	}
	return out
}

// Keys returns the committed keys in sorted order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.data))
	for k, vs := range s.data {
		if n := len(vs); n > 0 && !vs[n-1].deleted {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Pending returns the IDs of transactions known to the store (active or
// prepared), sorted.
func (s *Store) Pending() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.txns))
	for id := range s.txns {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
