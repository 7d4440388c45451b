package wal

import (
	"fmt"
	"os"
	"path/filepath"
)

// syncDir fsyncs a directory, making a rename within it durable: without
// this, a crash just after the rename can roll the directory entry back to
// the old (now deleted) file on some filesystems. A package variable so the
// crash tests can observe and fail it.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Compact rewrites the log in place, shrinking what recovery must read for
// transactions whose replayed status is StatusEnded (fully applied and
// garbage-collected by the engine via Forget). An ended aborted transaction
// loses every record. An ended committed one keeps its RecCommitted, whose
// payload is the redo image recovery rebuilds the resource from, and its
// last RecEnd, and loses the rest. Redo replayed from the compacted log therefore
// rebuilds the same state as from the original. Recovery time is
// proportional to log length, so long-running sites should compact
// periodically.
//
// The log stays open and usable throughout: staged records are flushed
// first, the surviving records are written to path+".compact", synced, and
// atomically renamed over the original, and the log's handle is swapped to
// the new file. Appends staged while the rewrite runs are simply written
// after the swap. A crash at any point leaves either the old or the new
// file intact.
//
// On-disk LSNs restart from 1 after compaction (they are scan positions);
// LSNs handed to in-flight appends keep their original values, which only
// order records within one log generation.
func (l *FileLog) Compact() (kept, dropped int, err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, 0, ErrClosed
	}
	l.mu.Unlock()
	l.flush()

	l.wmu.Lock()
	defer l.wmu.Unlock()

	_, recs, err := scan(l.f)
	if err != nil {
		return 0, 0, err
	}
	images := Replay(recs)

	tmpPath := l.path + ".compact"
	os.Remove(tmpPath)
	out, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: compact open: %w", err)
	}
	var size int64
	for _, r := range recs {
		// An ended transaction's last record is its RecEnd.
		if img := images[r.TxID]; img != nil && img.Status == StatusEnded &&
			!(img.Committed && (r.Type == RecCommitted || r.LSN == img.LastLSN)) {
			dropped++
			continue
		}
		n, err := out.Write(frame(r))
		if err != nil {
			out.Close()
			os.Remove(tmpPath)
			return 0, 0, fmt.Errorf("wal: compact rewrite: %w", err)
		}
		size += int64(n)
		kept++
	}
	if err := out.Sync(); err != nil {
		out.Close()
		os.Remove(tmpPath)
		return 0, 0, fmt.Errorf("wal: compact sync: %w", err)
	}
	if err := os.Rename(tmpPath, l.path); err != nil {
		out.Close()
		os.Remove(tmpPath)
		return 0, 0, fmt.Errorf("wal: compact rename: %w", err)
	}
	// The rename succeeded, so out IS the log now: swap the handle before
	// anything below can fail, or a later append would land on the old,
	// renamed-away inode and silently vanish. The new file holds exactly
	// the rewritten records and no reserved space; the next batch reserves.
	old := l.f
	l.f, l.end, l.reserved = out, size, size
	old.Close()
	// Make the rename itself durable: fsync the parent directory, or a
	// crash right here can lose the compacted file on some filesystems.
	if err := syncDir(filepath.Dir(l.path)); err != nil {
		return kept, dropped, fmt.Errorf("wal: compact dir sync: %w", err)
	}
	return kept, dropped, nil
}

// Compact rewrites a closed file log at path, dropping what ended
// transactions no longer need. It is the offline variant of
// (*FileLog).Compact, used before a node opens its log for serving.
func Compact(path string) (kept, dropped int, err error) {
	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	return l.Compact()
}
