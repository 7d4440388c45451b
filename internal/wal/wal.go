// Package wal provides the stable storage substrate required by commit
// protocols: an append-only write-ahead log of protocol state transitions.
//
// The paper assumes "each site has a local recovery strategy that provides
// atomicity at the local level"; this package is that strategy. A site
// forces a record describing each protocol state change before acting on
// it, and on restart replays the log to rebuild the commit state of every
// transaction (the recovery protocol then resolves any transaction left
// in doubt).
//
// Two implementations are provided: a MemoryLog for tests and simulations,
// and a FileLog with CRC-protected, length-prefixed records, optional
// fsync, and group commit for real deployments. Both tolerate a torn final
// record.
//
// Group commit: FileLog.AppendStaged stages a record and returns
// immediately; a background flusher coalesces everything staged into one
// write and one sync, then runs the batch's per-record durability callbacks
// itself, in batch order. Concurrent blocking Appends batch the same way
// (each is a staged append that waits for its callback), so N goroutines
// appending concurrently share syncs instead of serializing on them. The
// force-before-act discipline is preserved by the caller: it must not act
// on a state change until the callback fires. Each force is one fdatasync
// into space reserved ahead of the log (see FileLog).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// RecordType enumerates the protocol events a site persists.
type RecordType uint8

const (
	// RecBegin marks a coordinator starting a distributed commit.
	RecBegin RecordType = iota + 1
	// RecVoteYes marks a participant voting yes: it must not unilaterally
	// abort afterwards.
	RecVoteYes
	// RecVoteNo marks a participant voting no (unilateral abort).
	RecVoteNo
	// RecPrepared marks entry into the buffer state p (3PC only).
	RecPrepared
	// RecCommitted marks the irreversible commit decision.
	RecCommitted
	// RecAborted marks the irreversible abort decision.
	RecAborted
	// RecEnd marks that a transaction's effects have been applied and its
	// protocol state may be garbage collected.
	RecEnd
	// RecPaxosPromise marks a Paxos Commit acceptor promising a ballot
	// (forced before the 1b reply leaves the site).
	RecPaxosPromise
	// RecPaxosAccept marks a Paxos Commit acceptor accepting an instance
	// value (forced before the 2b reply leaves the site).
	RecPaxosAccept
	// RecBoot marks one start of the site's process; it belongs to no
	// transaction. See Boot.
	RecBoot
)

// String names the record type.
func (t RecordType) String() string {
	switch t {
	case RecBegin:
		return "begin"
	case RecVoteYes:
		return "vote-yes"
	case RecVoteNo:
		return "vote-no"
	case RecPrepared:
		return "prepared"
	case RecCommitted:
		return "committed"
	case RecAborted:
		return "aborted"
	case RecEnd:
		return "end"
	case RecPaxosPromise:
		return "paxos-promise"
	case RecPaxosAccept:
		return "paxos-accept"
	case RecBoot:
		return "boot"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Record is one log entry. Payload is opaque to the log (the engine stores
// participant lists; the kv store stages write sets).
type Record struct {
	LSN     uint64 // assigned by Append; 1-based
	Type    RecordType
	TxID    string
	Payload []byte
}

// Log is an append-only record store surviving crashes of its owner.
type Log interface {
	// Append durably adds a record and returns its log sequence number.
	Append(rec Record) (uint64, error)
	// AppendLazy adds a record without forcing it. The record is ordered
	// into the log like any other, but the caller neither forces it nor
	// waits for it: it rides whatever batch the next forced append, Records
	// scan, or Close triggers. A crash may lose a suffix of lazy records;
	// callers must only append records lazily when recovery can
	// reconstruct (or presume) their meaning — e.g. presumed-abort
	// settlement records, whose loss merely re-runs idempotent garbage
	// collection. Any write error surfaces on the batch that eventually
	// carries the record.
	AppendLazy(rec Record) error
	// Records returns every record in append order.
	Records() ([]Record, error)
	// Close releases resources; the log may be reopened (FileLog) or
	// reused (MemoryLog) afterwards.
	Close() error
}

// StagedLog is a Log supporting asynchronous, group-committed appends. A
// staged record becomes durable together with its batch; the callback fires
// exactly once, after the batch's write and sync completed (or with the
// error that prevented it). Callbacks for different records fire in LSN
// order.
type StagedLog interface {
	Log
	// AppendStaged stages rec for the next batch. fn must not call back
	// into the log: it runs on the goroutine that flushes the batch, while
	// the log holds its write lock.
	AppendStaged(rec Record, fn func(lsn uint64, err error))
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// MemoryLog is an in-memory Log. It survives simulated crashes (the owner
// discards its volatile state but keeps the MemoryLog, exactly as a disk
// would survive) and is safe for concurrent use.
type MemoryLog struct {
	mu     sync.Mutex
	recs   []Record
	closed bool
}

// NewMemoryLog returns an empty in-memory log.
func NewMemoryLog() *MemoryLog { return &MemoryLog{} }

// Append implements Log.
func (l *MemoryLog) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	rec.LSN = uint64(len(l.recs) + 1)
	rec.Payload = append([]byte(nil), rec.Payload...)
	l.recs = append(l.recs, rec)
	return rec.LSN, nil
}

// AppendLazy implements Log. Memory is always "durable" within the
// simulation model, so a lazy append is an ordinary append.
func (l *MemoryLog) AppendLazy(rec Record) error {
	_, err := l.Append(rec)
	return err
}

// Records implements Log.
func (l *MemoryLog) Records() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	out := make([]Record, len(l.recs))
	copy(out, l.recs)
	return out, nil
}

// Close implements Log. A closed MemoryLog can be reopened with Reopen.
func (l *MemoryLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

// Reopen makes a closed MemoryLog usable again, modelling a site restart
// that remounts its disk.
func (l *MemoryLog) Reopen() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = false
}

// Metrics receives observations from a FileLog. Nil fields are skipped; the
// hooks are called by the goroutine that flushes a batch, under the log's
// write lock, and must be fast.
type Metrics struct {
	// BatchRecords observes the number of records in each flushed batch.
	BatchRecords func(n int)
	// SyncLatency observes the write+sync duration of each batch.
	SyncLatency func(d time.Duration)
	// BatchBytes observes the bytes written per flushed batch; summing it
	// gives the total log bytes written.
	BatchBytes func(n int)
}

const (
	maxBatchBytes = 1 << 20  // a batch splits here; one oversized record flushes alone
	reserveStep   = 16 << 20 // a FileLog reserves log space this far ahead at a time
)

// FileLog is a disk-backed StagedLog with group commit. Records are
// length-prefixed and protected by CRC-32; a torn or corrupt tail is
// truncated on open. Because batches are written front-to-back, a crash
// mid-batch leaves a clean prefix: every record whose durability callback
// fired is on disk, and no record is ever missing in front of one that
// survived.
//
// Batches go into space fallocate reserved past the written end, so forcing
// one changes no file size and fdatasync suffices; the batch that grows the
// file pays a full fsync. Reserved space reads as zeros, and an all-zero
// header ends the scan (its empty body passes the CRC and fails to decode),
// so after a crash the reservation is a torn tail like any other.
//
// On-disk record layout (little endian):
//
//	uint32 length of body
//	uint32 CRC-32 (IEEE) of body
//	body: uint8 type | uint16 len(txid) | txid | payload
type FileLog struct {
	path    string
	syncOn  bool
	metrics Metrics

	// mu guards staging state: records not yet handed to the flusher, the
	// LSN counter and the closed flag.
	mu          sync.Mutex
	staged      []stagedRec
	stagedBytes int
	next        uint64
	closed      bool

	// wmu guards all file I/O (the handle itself, the offsets below, writes,
	// syncs, scans, compaction) and the delivery of durability callbacks.
	// Batches are written, and their callbacks run, in the order wmu is
	// acquired.
	wmu        sync.Mutex
	f          *os.File
	end        int64 // written end: the next batch is written here
	reserved   int64 // end of the space fallocate has reserved
	noPrealloc bool  // the filesystem refused fallocate: append and fsync
	sizeDirty  bool  // the file size changed since the last full fsync

	wake        chan struct{}
	quit        chan struct{}
	flusherDone chan struct{}
}

type stagedRec struct {
	lsn uint64
	buf []byte                      // header + body, ready to write
	fn  func(lsn uint64, err error) // nil for a lazy record
}

// FileLogOptions configures a FileLog.
type FileLogOptions struct {
	// NoSync disables the sync after each batch. Faster, but a crash of the
	// host (not just the process) may lose the tail of the log.
	NoSync bool
	// Metrics receives batch-size and sync-latency observations.
	Metrics Metrics
}

// OpenFileLog opens or creates a file-backed log, replaying any existing
// records, truncating a torn tail and reserving space past the end.
func OpenFileLog(path string, opts FileLogOptions) (*FileLog, error) {
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	validLen, recs, err := scan(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
	}
	if errors.Is(statErr, fs.ErrNotExist) {
		// The new file's directory entry must be durable before any record
		// inside it can be.
		if err := syncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: sync directory of %s: %w", path, err)
		}
	}
	l := &FileLog{
		path:        path,
		syncOn:      !opts.NoSync,
		metrics:     opts.Metrics,
		f:           f,
		end:         validLen,
		reserved:    validLen,
		next:        uint64(len(recs) + 1),
		wake:        make(chan struct{}, 1),
		quit:        make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	l.reserve(validLen + reserveStep)
	go l.flusher()
	return l, nil
}

// reserve extends the reserved space to cover need, in reserveStep steps.
// Where fallocate is refused the log falls back to appending, and every
// batch then grows the file. Requires wmu held (or sole ownership of l).
func (l *FileLog) reserve(need int64) {
	l.sizeDirty = true
	if l.noPrealloc {
		return
	}
	to := l.reserved + reserveStep*((need-l.reserved+reserveStep-1)/reserveStep)
	if err := fallocate(l.f, l.reserved, to-l.reserved); err != nil {
		l.noPrealloc = true
		return
	}
	l.reserved = to
}

// write puts one batch at the written end and forces it: with fdatasync,
// or with a full fsync after the file size changed. Requires wmu held.
func (l *FileLog) write(buf []byte) error {
	if need := l.end + int64(len(buf)); need > l.reserved {
		l.reserve(need)
	}
	if _, err := l.f.WriteAt(buf, l.end); err != nil {
		return err
	}
	l.end += int64(len(buf))
	switch {
	case !l.syncOn:
		return nil
	case l.sizeDirty:
		err := l.f.Sync()
		l.sizeDirty = err != nil
		return err
	}
	return fdatasync(l.f)
}

// scan reads records from the start of f, returning the byte length of the
// valid prefix and the decoded records. Corruption or truncation ends the
// scan without error: the tail is simply discarded.
func scan(f *os.File) (int64, []Record, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, nil, err
	}
	var (
		recs  []Record
		valid int64
		hdr   [8]byte
		lsn   uint64
	)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return valid, recs, nil // clean EOF or torn header
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if length > 64<<20 {
			return valid, recs, nil // absurd length: corrupt tail
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(f, body); err != nil {
			return valid, recs, nil // torn body
		}
		if crc32.ChecksumIEEE(body) != crc {
			return valid, recs, nil // corrupt body
		}
		rec, ok := decodeBody(body)
		if !ok {
			return valid, recs, nil
		}
		lsn++
		rec.LSN = lsn
		recs = append(recs, rec)
		valid += int64(8 + len(body))
	}
}

func encodeBody(rec Record) []byte {
	body := make([]byte, 0, 3+len(rec.TxID)+len(rec.Payload))
	body = append(body, byte(rec.Type))
	var tl [2]byte
	binary.LittleEndian.PutUint16(tl[:], uint16(len(rec.TxID)))
	body = append(body, tl[:]...)
	body = append(body, rec.TxID...)
	body = append(body, rec.Payload...)
	return body
}

func decodeBody(body []byte) (Record, bool) {
	if len(body) < 3 {
		return Record{}, false
	}
	rec := Record{Type: RecordType(body[0])}
	tl := int(binary.LittleEndian.Uint16(body[1:3]))
	if len(body) < 3+tl {
		return Record{}, false
	}
	rec.TxID = string(body[3 : 3+tl])
	if rest := body[3+tl:]; len(rest) > 0 {
		rec.Payload = append([]byte(nil), rest...)
	}
	return rec, true
}

// frame encodes a record with its on-disk header.
func frame(rec Record) []byte {
	body := encodeBody(rec)
	buf := make([]byte, 8, 8+len(body))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(body))
	return append(buf, body...)
}

// AppendStaged implements StagedLog: the record joins the next batch and fn
// fires once the batch is durable.
func (l *FileLog) AppendStaged(rec Record, fn func(lsn uint64, err error)) {
	if len(rec.TxID) > 1<<16-1 {
		fn(0, fmt.Errorf("wal: transaction ID too long (%d bytes)", len(rec.TxID)))
		return
	}
	buf := frame(rec)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		fn(0, ErrClosed)
		return
	}
	lsn := l.next
	l.next++
	l.staged = append(l.staged, stagedRec{lsn: lsn, buf: buf, fn: fn})
	l.stagedBytes += len(buf)
	l.mu.Unlock()
	l.signal()
}

// AppendLazy implements Log: the record is staged in log order but the
// flusher is not woken for it, so it rides whatever batch the next forced
// append (or Records scan, or Close) triggers. A crash
// before that batch loses the record.
func (l *FileLog) AppendLazy(rec Record) error {
	if len(rec.TxID) > 1<<16-1 {
		return fmt.Errorf("wal: transaction ID too long (%d bytes)", len(rec.TxID))
	}
	buf := frame(rec)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	lsn := l.next
	l.next++
	l.staged = append(l.staged, stagedRec{lsn: lsn, buf: buf})
	l.stagedBytes += len(buf)
	full := l.stagedBytes >= maxBatchBytes
	l.mu.Unlock()
	// No signal: lazy records add no sync of their own. The next forced
	// append, Records, or Close will carry them.
	// Only a full batch forces a flush, bounding staged memory.
	if full {
		l.signal()
	}
	return nil
}

func (l *FileLog) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Append implements Log: a staged append that waits for durability.
// Concurrent Appends coalesce into shared batches.
func (l *FileLog) Append(rec Record) (uint64, error) {
	type result struct {
		lsn uint64
		err error
	}
	ch := make(chan result, 1)
	l.AppendStaged(rec, func(lsn uint64, err error) { ch <- result{lsn, err} })
	r := <-ch
	return r.lsn, r.err
}

// flusher is the background goroutine turning staged records into batches.
func (l *FileLog) flusher() {
	defer close(l.flusherDone)
	for {
		select {
		case <-l.quit:
			return // Close drains whatever is still staged
		case <-l.wake:
		}
		l.flush()
	}
}

// flush writes one batch, everything currently staged up to maxBatchBytes,
// then runs its durability callbacks in LSN order. Any goroutine may call it
// (the flusher, Records, Compact, Close); holding wmu from the write to the
// last callback orders both the writes and the callbacks by batch.
func (l *FileLog) flush() {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	n, nbytes := 0, 0
	for n < len(l.staged) && (n == 0 || nbytes+len(l.staged[n].buf) <= maxBatchBytes) {
		nbytes += len(l.staged[n].buf)
		n++
	}
	batch := l.staged[:n:n]
	l.staged = l.staged[n:]
	if len(l.staged) == 0 {
		l.staged = nil // release the drained backing array
	}
	l.stagedBytes -= nbytes
	remaining := len(l.staged) > 0
	l.mu.Unlock()
	if len(batch) == 0 {
		return
	}

	buf := make([]byte, 0, nbytes)
	for _, r := range batch {
		buf = append(buf, r.buf...)
	}
	start := time.Now()
	err := l.write(buf)
	elapsed := time.Since(start)
	if err != nil {
		err = fmt.Errorf("wal: append batch: %w", err)
	}
	if l.metrics.BatchRecords != nil {
		l.metrics.BatchRecords(len(batch))
	}
	if l.metrics.SyncLatency != nil {
		l.metrics.SyncLatency(elapsed)
	}
	if l.metrics.BatchBytes != nil {
		l.metrics.BatchBytes(nbytes)
	}
	for _, r := range batch {
		if r.fn != nil {
			r.fn(r.lsn, err)
		}
	}
	if remaining {
		l.signal()
	}
}

// drain flushes batches until nothing is staged.
func (l *FileLog) drain() {
	for {
		l.flush()
		l.mu.Lock()
		empty := len(l.staged) == 0
		l.mu.Unlock()
		if empty {
			return
		}
	}
}

// Records implements Log by scanning the file, so a long-running log holds
// no in-memory record cache. Staged records are flushed first. Note that
// LSNs are scan positions: after a Compact they restart from 1 even though
// in-flight appends keep their original, larger LSNs.
func (l *FileLog) Records() ([]Record, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	l.mu.Unlock()
	l.drain()
	l.wmu.Lock()
	defer l.wmu.Unlock()
	_, recs, err := scan(l.f)
	return recs, err
}

// Close implements Log. Staged records are flushed (and their callbacks
// run) and the reserved space past the written end is released before the
// file closes; closing twice is a no-op.
func (l *FileLog) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	<-l.flusherDone
	l.drain()
	l.wmu.Lock()
	defer l.wmu.Unlock()
	err := l.f.Truncate(l.end)
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
