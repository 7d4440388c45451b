package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// seedLog writes a log where tx-end-* are fully ended (compaction drops
// them) and tx-live-* are committed but not ended (compaction keeps them).
func seedLog(t *testing.T, path string, ended, live int) {
	t.Helper()
	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < ended; i++ {
		tx := fmt.Sprintf("tx-end-%d", i)
		for _, r := range []Record{
			{Type: RecVoteYes, TxID: tx},
			{Type: RecCommitted, TxID: tx},
			{Type: RecEnd, TxID: tx},
		} {
			if _, err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < live; i++ {
		tx := fmt.Sprintf("tx-live-%d", i)
		if _, err := l.Append(Record{Type: RecCommitted, TxID: tx, Payload: []byte("redo")}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactSyncsParentDir asserts the crash-durability step: after the
// rename, Compact must fsync the log's parent directory, or the rename
// itself can be lost on power failure.
func TestCompactSyncsParentDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.wal")
	seedLog(t, path, 2, 1)

	var synced []string
	orig := syncDir
	syncDir = func(d string) error {
		synced = append(synced, d)
		return orig(d)
	}
	defer func() { syncDir = orig }()

	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, _, err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("dir syncs = %v, want exactly [%s]", synced, dir)
	}
}

func TestCompactDirSyncFailureReported(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	seedLog(t, path, 1, 1)

	boom := errors.New("injected dir sync failure")
	orig := syncDir
	syncDir = func(string) error { return boom }
	defer func() { syncDir = orig }()

	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, _, err := l.Compact(); !errors.Is(err, boom) {
		t.Fatalf("Compact err = %v, want wrapped %v", err, boom)
	}
	// The handle was swapped before the failing sync: appends still land in
	// the compacted file, not the renamed-away inode.
	if _, err := l.Append(Record{Type: RecVoteYes, TxID: "after"}); err != nil {
		t.Fatal(err)
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.TxID == "after" {
			found = true
		}
	}
	if !found {
		t.Fatal("append after failed dir sync vanished (handle not swapped)")
	}
}

// TestCompactSeekFailureKeepsNewHandle is the regression test for the
// handle-swap bug: when the post-rename seek fails, the log must already be
// on the new file — the old code left l.f pointing at the renamed-away
// inode, so every later append went to an unlinked file and silently
// vanished across restart.
func TestCompactSeekFailureKeepsNewHandle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	seedLog(t, path, 2, 1)

	boom := errors.New("injected seek failure")
	origSeek := seekEnd
	seekEnd = func(*os.File) (int64, error) { return 0, boom }
	defer func() { seekEnd = origSeek }()

	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Compact(); !errors.Is(err, boom) {
		t.Fatalf("Compact err = %v, want wrapped %v", err, boom)
	}
	if _, err := l.Append(Record{Type: RecCommitted, TxID: "post-seek", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// The append must survive reopen from the on-disk path.
	l2, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, err := l2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if img := Replay(recs); img["post-seek"].Status != StatusCommitted {
		t.Fatalf("append after failed seek lost across reopen: %+v", img)
	}
}

func TestCompactMetricsMatchReturn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	seedLog(t, path, 3, 2)

	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	kept, dropped, err := l.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 || dropped != 9 {
		t.Fatalf("kept=%d dropped=%d, want 2/9", kept, dropped)
	}
}

// TestCompactConcurrentWithAppendsAndReads hammers Append and Records from
// other goroutines while Compact rewrites the log; run under -race this
// guards the handle swap and the staged-append path.
func TestCompactConcurrentWithAppendsAndReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.wal")
	seedLog(t, path, 50, 5)

	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 3)
	// first closes once the appender has landed a record, so the compaction
	// loop below genuinely races with live appends; on one CPU the main
	// goroutine can otherwise finish all five Compacts before the appender
	// is ever scheduled.
	first := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := l.Append(Record{Type: RecCommitted, TxID: fmt.Sprintf("cc-%d", i)}); err != nil {
				errs <- err
				return
			}
			if i == 0 {
				close(first)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := l.Records(); err != nil {
				errs <- err
				return
			}
		}
	}()
	<-first
	for i := 0; i < 5; i++ {
		if _, _, err := l.Compact(); err != nil {
			t.Fatalf("compact %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Everything appended concurrently must still be readable.
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	cc := 0
	for _, r := range recs {
		if strings.HasPrefix(r.TxID, "cc-") {
			cc++
		}
	}
	if cc == 0 {
		t.Fatal("no concurrent appends survived compaction")
	}
}
