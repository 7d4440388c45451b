package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFileLogConcurrentAppend hammers one log from many goroutines (run
// under -race in CI): every append must get a unique LSN and every record
// must survive a reopen, in an order consistent with LSN assignment.
func TestFileLogConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 16, 25
	var wg sync.WaitGroup
	lsns := make([][]uint64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				lsn, err := l.Append(Record{Type: RecCommitted, TxID: fmt.Sprintf("tx-%d-%d", g, i)})
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				lsns[g] = append(lsns[g], lsn)
			}
		}(g)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, gl := range lsns {
		for i, lsn := range gl {
			if seen[lsn] {
				t.Fatalf("duplicate LSN %d", lsn)
			}
			seen[lsn] = true
			if i > 0 && gl[i-1] >= lsn {
				t.Fatalf("LSNs not increasing within a goroutine: %d then %d", gl[i-1], lsn)
			}
		}
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("got %d LSNs, want %d", len(seen), goroutines*perG)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recs, err := re.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != goroutines*perG {
		t.Fatalf("reopen found %d records, want %d", len(recs), goroutines*perG)
	}
}

// TestFileLogBatchCoalescing pins group commit actually batching: with a
// flush interval holding the flusher back, records staged together become
// one batch with one sync.
func TestFileLogBatchCoalescing(t *testing.T) {
	var batches []int
	var syncs atomic.Int64
	var mu sync.Mutex
	l, err := OpenFileLog(filepath.Join(t.TempDir(), "wal"), FileLogOptions{
		FlushInterval: 50 * time.Millisecond,
		Metrics: Metrics{
			BatchRecords: func(n int) { mu.Lock(); batches = append(batches, n); mu.Unlock() },
			SyncLatency:  func(time.Duration) { syncs.Add(1) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		l.AppendStaged(Record{Type: RecBegin, TxID: fmt.Sprintf("tx%d", i)}, func(lsn uint64, err error) {
			if err != nil {
				t.Errorf("staged append: %v", err)
			}
			done <- struct{}{}
		})
	}
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for durability callbacks")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, b := range batches {
		total += b
	}
	if total != n {
		t.Fatalf("batches account for %d records, want %d", total, n)
	}
	if len(batches) != 1 {
		t.Fatalf("expected one coalesced batch, got %d: %v", len(batches), batches)
	}
	if syncs.Load() != int64(len(batches)) {
		t.Fatalf("got %d syncs for %d batches", syncs.Load(), len(batches))
	}
	l.Close()
}

// TestFileLogTornBatch truncates a batched-written log at every byte
// length and verifies reopening always recovers a clean record prefix.
func TestFileLogTornBatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	l, err := OpenFileLog(path, FileLogOptions{NoSync: true, FlushInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		l.AppendStaged(Record{Type: RecVoteYes, TxID: fmt.Sprintf("tx%d", i), Payload: []byte{byte(i), 0xee}},
			func(uint64, error) { wg.Done() })
	}
	wg.Wait()
	l.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recLen := len(full) / n
	for cut := 0; cut <= len(full); cut++ {
		torn := filepath.Join(dir, "torn")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenFileLog(torn, FileLogOptions{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		recs, err := re.Records()
		re.Close()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if want := cut / recLen; len(recs) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), want)
		}
		for i, r := range recs {
			if r.TxID != fmt.Sprintf("tx%d", i) {
				t.Fatalf("cut %d: record %d is %q", cut, i, r.TxID)
			}
		}
	}
}

// TestFileLogRecordsFlushesStaged: Records must observe records staged
// before the call, without waiting for the flusher.
func TestFileLogRecordsFlushesStaged(t *testing.T) {
	l, err := OpenFileLog(filepath.Join(t.TempDir(), "wal"), FileLogOptions{FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AppendStaged(Record{Type: RecBegin, TxID: "tx1"}, func(uint64, error) {})
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].TxID != "tx1" {
		t.Fatalf("Records = %+v, want the staged record", recs)
	}
}

// TestFileLogOnlineCompact compacts a live log while appenders keep
// running: ended transactions disappear, everything else survives.
func TestFileLogOnlineCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Ended transactions: full life cycle including the end record.
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("old%d", i)
		for _, typ := range []RecordType{RecBegin, RecCommitted, RecEnd} {
			if _, err := l.Append(Record{Type: typ, TxID: id}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A live one.
	if _, err := l.Append(Record{Type: RecVoteYes, TxID: "live", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var appended atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := l.Append(Record{Type: RecBegin, TxID: fmt.Sprintf("new-%d-%d", g, i)}); err != nil {
					t.Errorf("append during compact: %v", err)
					return
				}
				appended.Add(1)
			}
		}(g)
	}
	kept, dropped, err := l.Compact()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 15 {
		t.Fatalf("dropped %d records, want 15", dropped)
	}
	if kept < 1 {
		t.Fatalf("kept %d records, want at least the live one", kept)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	recs, err := re.Records()
	if err != nil {
		t.Fatal(err)
	}
	var live, news int
	for _, r := range recs {
		switch {
		case r.TxID == "live":
			live++
		case len(r.TxID) >= 3 && r.TxID[:3] == "new":
			news++
		case len(r.TxID) >= 3 && r.TxID[:3] == "old":
			t.Fatalf("ended transaction %s survived compaction", r.TxID)
		}
	}
	if live != 1 {
		t.Fatalf("live record count = %d, want 1", live)
	}
	if int64(news) != appended.Load() {
		t.Fatalf("found %d concurrent appends, want %d", news, appended.Load())
	}
}
