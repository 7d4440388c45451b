package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// seedLog writes a log where tx-end-* are committed and ended (compaction
// drops their votes) and tx-live-* are committed but not ended (compaction
// keeps them whole).
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
// handle-swap bug: when a step after the rename fails, the log must already
// be on the new file at the new file's end. Leaving the handle on the
// renamed-away inode sends every later append to an unlinked file, where
// it silently vanishes across restart; a stale end offset leaves a hole or
// overwrites kept records. The end offset once came from a seek after the
// rename; it is now tracked while the records are rewritten, and the
// directory sync is the one step left that can fail past the rename.
func TestCompactSeekFailureKeepsNewHandle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.wal")
	seedLog(t, path, 2, 1)

	boom := errors.New("injected failure past the rename")
	orig := syncDir
	syncDir = func(string) error { return boom }
	defer func() { syncDir = orig }()

	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	kept, _, err := l.Compact()
	if !errors.Is(err, boom) {
		t.Fatalf("Compact err = %v, want wrapped %v", err, boom)
	}
	if _, err := l.Append(Record{Type: RecCommitted, TxID: "post-seek", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// The append, and every record the compaction kept, must survive reopen
	// from the on-disk path.
	l2, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, err := l2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != kept+1 {
		t.Fatalf("reopened log holds %d records, want %d kept + 1 appended", len(recs), kept)
	}
	img := Replay(recs)
	if img["post-seek"] == nil || img["post-seek"].Status != StatusCommitted {
		t.Fatalf("append after failure past the rename lost across reopen: %+v", img)
	}
	if img["tx-live-0"] == nil || img["tx-live-0"].Status != StatusCommitted {
		t.Fatalf("kept record lost across reopen: %+v", img)
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
	// Each ended transaction keeps its commit and end records and drops
	// its vote; the two live ones keep everything.
	if kept != 8 || dropped != 3 {
		t.Fatalf("kept=%d dropped=%d, want 8/3", kept, dropped)
	}
}

// redoState is what recovery rebuilds from a log: the payload of every
// RecCommitted, applied in log order. Payloads here are "key=value" writes.
func redoState(recs []Record) map[string]string {
	st := map[string]string{}
	for _, r := range recs {
		if r.Type == RecCommitted && len(r.Payload) > 0 {
			k, v, _ := strings.Cut(string(r.Payload), "=")
			st[k] = v
		}
	}
	return st
}

// TestCompactPreservesRedo is a seeded property test over generated logs:
// redo applied to an empty store gives the same store before and after
// Compact. Transactions interleave, commit or abort, may be ended, may be
// ended twice (a restarted site forgets a recovered transaction again), and
// write overlapping keys so the order of kept redo records matters.
func TestCompactPreservesRedo(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	dir := t.TempDir()
	for trial := 0; trial < 30; trial++ {
		type tx struct {
			id    string
			steps []Record
		}
		var live []*tx
		for i := 0; i < 1+rng.Intn(20); i++ {
			id := fmt.Sprintf("t%d", i)
			steps := []Record{{Type: RecBegin, TxID: id}, {Type: RecVoteYes, TxID: id}}
			if rng.Intn(2) == 0 {
				steps = append(steps, Record{Type: RecPrepared, TxID: id})
			}
			if rng.Intn(3) > 0 {
				redo := fmt.Sprintf("k%d=%s", rng.Intn(4), id)
				steps = append(steps, Record{Type: RecCommitted, TxID: id, Payload: []byte(redo)})
			} else {
				steps = append(steps, Record{Type: RecAborted, TxID: id})
			}
			for e := rng.Intn(3); e > 0; e-- {
				steps = append(steps, Record{Type: RecEnd, TxID: id})
			}
			live = append(live, &tx{id: id, steps: steps[:1+rng.Intn(len(steps))]})
		}
		path := filepath.Join(dir, fmt.Sprintf("p%d.wal", trial))
		l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for len(live) > 0 {
			i := rng.Intn(len(live))
			if _, err := l.Append(live[i].steps[0]); err != nil {
				t.Fatal(err)
			}
			if live[i].steps = live[i].steps[1:]; len(live[i].steps) == 0 {
				live = append(live[:i], live[i+1:]...)
			}
		}
		before, err := l.Records()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		after, err := l.Records()
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		if want, got := redoState(before), redoState(after); !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: redo before compaction %v, after %v", trial, want, got)
		}
		bi, ai := Replay(before), Replay(after)
		for id, img := range bi {
			if img.Status != StatusEnded {
				if ai[id] == nil || ai[id].Status != img.Status {
					t.Fatalf("trial %d: live %s changed status across compaction", trial, id)
				}
			}
		}
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

// TestBootCountsIncarnationsAcrossCompaction: each Boot forces one record
// and returns how many the log then holds, compaction keeps them all, and
// Replay gives them no transaction image.
func TestBootCountsIncarnationsAcrossCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "boot.wal")
	for want := uint64(1); want <= 3; want++ {
		if want > 1 {
			if _, _, err := Compact(path); err != nil {
				t.Fatal(err)
			}
		}
		l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Boot(l)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("boot %d: incarnation %d", want, got)
		}
		tx := fmt.Sprintf("tx-%d", want) // ended: compaction trims it around the boot records
		for _, typ := range []RecordType{RecVoteYes, RecCommitted, RecEnd} {
			if _, err := l.Append(Record{Type: typ, TxID: tx}); err != nil {
				t.Fatal(err)
			}
		}
		recs, err := l.Records()
		if err != nil {
			t.Fatal(err)
		}
		if img := Replay(recs)[""]; img != nil {
			t.Fatalf("boot records replayed as a transaction: %+v", img)
		}
		l.Close()
	}
}
