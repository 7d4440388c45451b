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

// TestFileLogZeroHeaderEndsScan pins what makes reserved space safe to
// scan: an all-zero header announces an empty body, whose CRC-32 is zero,
// so it passes the CRC, fails to decode, and ends the scan. Nothing behind
// the zeros is ever read back.
func TestFileLogZeroHeaderEndsScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	var data []byte
	data = append(data, frame(Record{Type: RecCommitted, TxID: "good"})...)
	data = append(data, make([]byte, 64)...)
	data = append(data, frame(Record{Type: RecCommitted, TxID: "ghost"})...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].TxID != "good" {
		t.Fatalf("Records = %+v, want only the record in front of the zeros", recs)
	}
}

// TestFileLogTornBatchInReservedSpace crashes a log inside its reservation:
// the file is copied while the log is open, reserved zeros and all, and one
// batch in the middle is torn. Reopening keeps the acknowledged prefix,
// truncates the rest and reserves again. A record appended then survives a
// second crash, and no record from past the tear ever reappears, although
// the new record exactly covers the torn one.
func TestFileLogTornBatchInReservedSpace(t *testing.T) {
	dir := t.TempDir()
	crashCopy := func(from, to string) []byte {
		t.Helper()
		img, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, img, 0o644); err != nil {
			t.Fatal(err)
		}
		return img
	}
	txids := func(l *FileLog) []string {
		t.Helper()
		recs, err := l.Records()
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, r := range recs {
			ids = append(ids, r.TxID)
		}
		return ids
	}

	live, err := OpenFileLog(filepath.Join(dir, "live.wal"), FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	rec := func(id string) Record { return Record{Type: RecVoteYes, TxID: id, Payload: []byte("payload")} }
	for i := 0; i < 5; i++ { // one batch each
		if _, err := live.Append(rec(fmt.Sprintf("tx%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Tear the fourth batch: its body no longer matches its CRC, while the
	// fifth, behind it, is intact.
	torn := filepath.Join(dir, "torn.wal")
	img := crashCopy(live.Path(), torn)
	tear := int64(3 * len(frame(rec("tx0"))))
	img[tear+8] ^= 0xff
	if err := os.WriteFile(torn, img, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenFileLog(torn, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := fmt.Sprint(txids(l)); got != "[tx0 tx1 tx2]" {
		t.Fatalf("reopened torn log holds %s, want the prefix in front of the tear", got)
	}
	fi, err := os.Stat(torn)
	if err != nil {
		t.Fatal(err)
	}
	want := tear
	if !l.noPrealloc {
		want += reserveStep
	}
	if fi.Size() != want {
		t.Fatalf("reopened file is %d bytes, want %d: torn tail not truncated and reserved again", fi.Size(), want)
	}

	if _, err := l.Append(rec("txN")); err != nil {
		t.Fatal(err)
	}
	crashCopy(torn, filepath.Join(dir, "torn2.wal"))
	l2, err := OpenFileLog(filepath.Join(dir, "torn2.wal"), FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := fmt.Sprint(txids(l2)); got != "[tx0 tx1 tx2 txN]" {
		t.Fatalf("second reopen holds %s, want the prefix and the new record only", got)
	}
}

// TestFileLogWithoutFallocate runs the fallback a filesystem that refuses
// fallocate gets: every batch appends past the end of the file and pays a
// full fsync, and what it wrote reads back after a reopen.
func TestFileLogWithoutFallocate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l.wmu.Lock()
	l.noPrealloc, l.reserved = true, l.end
	if err := l.f.Truncate(l.end); err != nil {
		t.Fatal(err)
	}
	l.wmu.Unlock()
	for i := 0; i < 3; i++ {
		if _, err := l.Append(Record{Type: RecCommitted, TxID: fmt.Sprintf("tx%d", i)}); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		l.wmu.Lock()
		end, dirty := l.end, l.sizeDirty
		l.wmu.Unlock()
		if fi.Size() != end || dirty {
			t.Fatalf("after append %d: file %d bytes, written end %d, size change unsynced %v", i, fi.Size(), end, dirty)
		}
	}
	l.Close()
	re, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if recs, err := re.Records(); err != nil || len(recs) != 3 {
		t.Fatalf("reopened %d records (%v), want 3", len(recs), err)
	}
}

// BenchmarkFileLogForce prices one force at the wal seam: a FileLog with
// sync on, Append of 120-byte records (header included) from 1, 8 and 64
// concurrent appenders. us/force is the mean time an appender waits for its
// record to be durable; records/batch is how many forces shared one sync.
func BenchmarkFileLogForce(b *testing.B) {
	rec := Record{Type: RecVoteYes, TxID: "bench", Payload: make([]byte, 104)}
	if n := len(frame(rec)); n != 120 {
		b.Fatalf("record frame is %d bytes, want 120", n)
	}
	for _, appenders := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("appenders-%d", appenders), func(b *testing.B) {
			var batches atomic.Int64
			l, err := OpenFileLog(filepath.Join(b.TempDir(), "wal"), FileLogOptions{
				Metrics: Metrics{BatchRecords: func(int) { batches.Add(1) }},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			var next, waited atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for g := 0; g < appenders; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						start := time.Now()
						if _, err := l.Append(rec); err != nil {
							b.Error(err)
							return
						}
						waited.Add(int64(time.Since(start)))
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(waited.Load())/1e3/float64(b.N), "us/force")
			b.ReportMetric(float64(b.N)/float64(batches.Load()), "records/batch")
		})
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
// running: ended transactions shrink to their commit and end records,
// everything else survives.
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
	if dropped != 5 {
		t.Fatalf("dropped %d records, want the 5 begin records", dropped)
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
		case len(r.TxID) >= 3 && r.TxID[:3] == "old" && r.Type == RecBegin:
			t.Fatalf("ended transaction %s kept its begin record", r.TxID)
		}
	}
	if live != 1 {
		t.Fatalf("live record count = %d, want 1", live)
	}
	if int64(news) != appended.Load() {
		t.Fatalf("found %d concurrent appends, want %d", news, appended.Load())
	}
}
