package wal

import (
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestMemoryLogAppendAndRead(t *testing.T) {
	l := NewMemoryLog()
	lsn, err := l.Append(Record{Type: RecBegin, TxID: "t1", Payload: []byte("p")})
	if err != nil || lsn != 1 {
		t.Fatalf("Append = %d, %v", lsn, err)
	}
	lsn, err = l.Append(Record{Type: RecCommitted, TxID: "t1"})
	if err != nil || lsn != 2 {
		t.Fatalf("Append = %d, %v", lsn, err)
	}
	recs, err := l.Records()
	if err != nil || len(recs) != 2 {
		t.Fatalf("Records = %v, %v", recs, err)
	}
	if recs[0].Type != RecBegin || string(recs[0].Payload) != "p" || recs[1].LSN != 2 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestMemoryLogCloseReopen(t *testing.T) {
	l := NewMemoryLog()
	if _, err := l.Append(Record{Type: RecVoteYes, TxID: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Type: RecCommitted, TxID: "t"}); err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}
	if _, err := l.Records(); err != ErrClosed {
		t.Fatalf("records after close: %v", err)
	}
	l.Reopen()
	if _, err := l.Append(Record{Type: RecCommitted, TxID: "t"}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	recs, err := l.Records()
	if err != nil || len(recs) != 2 {
		t.Fatalf("log lost records across close/reopen: %v %v", recs, err)
	}
}

func TestMemoryLogPayloadIsolation(t *testing.T) {
	l := NewMemoryLog()
	buf := []byte("abc")
	if _, err := l.Append(Record{Type: RecBegin, TxID: "t", Payload: buf}); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	recs, _ := l.Records()
	if string(recs[0].Payload) != "abc" {
		t.Fatal("log shares the caller's payload buffer")
	}
}

func TestFileLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site1.wal")
	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Type: RecBegin, TxID: "tx-1", Payload: []byte("participants=2,3")},
		{Type: RecVoteYes, TxID: "tx-1"},
		{Type: RecPrepared, TxID: "tx-1", Payload: []byte{0, 1, 2}},
		{Type: RecCommitted, TxID: "tx-1"},
		{Type: RecEnd, TxID: "tx-1"},
	}
	for i, r := range want {
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}

	l2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, err := l2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i].Type != want[i].Type || recs[i].TxID != want[i].TxID ||
			string(recs[i].Payload) != string(want[i].Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
	// Appends continue after reopen with the right LSN.
	lsn, err := l2.Append(Record{Type: RecBegin, TxID: "tx-2"})
	if err != nil || lsn != uint64(len(want)+1) {
		t.Fatalf("append after reopen: lsn=%d err=%v", lsn, err)
	}
}

func TestFileLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(Record{Type: RecVoteYes, TxID: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Simulate a crash mid-write: chop bytes off the end.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, _ := l2.Records()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records after torn tail, want 2", len(recs))
	}
	// The torn record's space is reclaimed and new appends land cleanly.
	if _, err := l2.Append(Record{Type: RecCommitted, TxID: "t"}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	recs, _ = l3.Records()
	if len(recs) != 3 || recs[2].Type != RecCommitted {
		t.Fatalf("after repair: %+v", recs)
	}
}

func TestFileLogCorruptBody(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.wal")
	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Type: RecVoteYes, TxID: "good"}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Type: RecCommitted, TxID: "evil"}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Flip a byte in the second record's body.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, _ := l2.Records()
	if len(recs) != 1 || recs[0].TxID != "good" {
		t.Fatalf("recovered %+v, want only the good record", recs)
	}
}

func TestFileLogRejectsHugeTxID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.wal")
	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	huge := make([]byte, 1<<16)
	for i := range huge {
		huge[i] = 'x'
	}
	if _, err := l.Append(Record{Type: RecBegin, TxID: string(huge)}); err == nil {
		t.Fatal("oversized TxID accepted")
	}
}

func TestFileLogClosedErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.wal")
	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append(Record{Type: RecBegin, TxID: "t"}); err != ErrClosed {
		t.Fatalf("append on closed log: %v", err)
	}
	if _, err := l.Records(); err != ErrClosed {
		t.Fatalf("records on closed log: %v", err)
	}
}

func TestRecordTypeStrings(t *testing.T) {
	names := map[RecordType]string{
		RecBegin: "begin", RecVoteYes: "vote-yes", RecVoteNo: "vote-no",
		RecPrepared: "prepared", RecCommitted: "committed",
		RecAborted: "aborted", RecEnd: "end",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
}

func TestReplay(t *testing.T) {
	recs := []Record{
		{LSN: 1, Type: RecBegin, TxID: "a", Payload: []byte("2,3")},
		{LSN: 2, Type: RecVoteYes, TxID: "b"},
		{LSN: 3, Type: RecPrepared, TxID: "b"},
		{LSN: 4, Type: RecCommitted, TxID: "a"},
		{LSN: 5, Type: RecVoteYes, TxID: "c"},
		{LSN: 6, Type: RecVoteNo, TxID: "d"},
		{LSN: 7, Type: RecEnd, TxID: "a"},
		{LSN: 8, Type: RecBegin, TxID: "e"},
		{LSN: 9, Type: RecEnd, TxID: "e"},
	}
	img := Replay(recs)
	if got := img["a"].Status; got != StatusEnded || !img["a"].Committed {
		t.Errorf("a: %v committed=%v, want an ended commit", got, img["a"].Committed)
	}
	if got := img["e"].Status; got != StatusEnded || img["e"].Committed {
		t.Errorf("e: %v committed=%v, want an ended abort", got, img["e"].Committed)
	}
	if !img["a"].Coordinator || string(img["a"].Begin) != "2,3" {
		t.Errorf("a image = %+v", img["a"])
	}
	if got := img["b"].Status; got != StatusPrepared || !got.inDoubt() {
		t.Errorf("b: %v", got)
	}
	if got := img["c"].Status; got != StatusVotedYes || !got.inDoubt() {
		t.Errorf("c: %v", got)
	}
	if got := img["d"].Status; got != StatusVotedNo || got.inDoubt() || got.final() {
		t.Errorf("d: %v", got)
	}
	if img["b"].LastLSN != 3 {
		t.Errorf("b.LastLSN = %d", img["b"].LastLSN)
	}
}

func TestReplayCoordinatorBegunAborts(t *testing.T) {
	img := Replay([]Record{{LSN: 1, Type: RecBegin, TxID: "t"}})
	if img["t"].Status != StatusBegun || img["t"].Status.inDoubt() {
		t.Fatalf("begun coordinator image = %+v", img["t"])
	}
}

func TestStatusPredicates(t *testing.T) {
	if !StatusCommitted.final() || !StatusAborted.final() || !StatusEnded.final() {
		t.Fatal("final statuses not final")
	}
	if StatusVotedYes.final() || StatusBegun.final() {
		t.Fatal("non-final statuses reported final")
	}
	for s := StatusUnknown; s <= StatusEnded; s++ {
		if s.String() == "" {
			t.Fatalf("empty name for %d", int(s))
		}
	}
}

// TestFileLogQuickRoundTrip is a property test: any sequence of records
// written to a FileLog is read back verbatim after close and reopen.
func TestFileLogQuickRoundTrip(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(txids [][8]byte, payloads [][]byte, types []byte) bool {
		i++
		path := filepath.Join(dir, "q", "")
		_ = os.MkdirAll(path, 0o755)
		path = filepath.Join(path, "log"+string(rune('a'+i%26))+".wal")
		os.Remove(path)
		l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		n := len(txids)
		if len(payloads) < n {
			n = len(payloads)
		}
		if len(types) < n {
			n = len(types)
		}
		var want []Record
		for j := 0; j < n; j++ {
			r := Record{
				Type:    RecordType(types[j]%7 + 1),
				TxID:    string(txids[j][:]),
				Payload: payloads[j],
			}
			if _, err := l.Append(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
		l.Close()
		l2, err := OpenFileLog(path, FileLogOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		got, err := l2.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			return false
		}
		for j := range want {
			if got[j].Type != want[j].Type || got[j].TxID != want[j].TxID ||
				string(got[j].Payload) != string(want[j].Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.wal")
	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// tx1: full lifecycle, ended. tx2: committed but not ended. tx3: in
	// doubt.
	for _, r := range []Record{
		{Type: RecVoteYes, TxID: "tx1", Payload: []byte("p1")},
		{Type: RecVoteYes, TxID: "tx2"},
		{Type: RecCommitted, TxID: "tx1"},
		{Type: RecEnd, TxID: "tx1"},
		{Type: RecCommitted, TxID: "tx2", Payload: []byte("redo2")},
		{Type: RecVoteYes, TxID: "tx3", Payload: []byte("p3")},
	} {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	kept, dropped, err := Compact(path)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 5 || dropped != 1 {
		t.Fatalf("kept=%d dropped=%d, want 5/1", kept, dropped)
	}

	l2, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, _ := l2.Records()
	img := Replay(recs)
	// tx1 ended committed: its vote goes, its commit (the redo) and end stay.
	if img["tx1"] == nil || img["tx1"].Status != StatusEnded {
		t.Fatalf("tx1 image = %+v", img["tx1"])
	}
	if img["tx2"].Status != StatusCommitted || string(img["tx2"].Last) != "redo2" {
		t.Fatalf("tx2 image = %+v", img["tx2"])
	}
	if img["tx3"].Status != StatusVotedYes || string(img["tx3"].Last) != "p3" {
		t.Fatalf("tx3 image = %+v", img["tx3"])
	}
	// Appends continue after compaction.
	if _, err := l2.Append(Record{Type: RecAborted, TxID: "tx3"}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactEmptyAndIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.wal")
	l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	kept, dropped, err := Compact(path)
	if err != nil || kept != 0 || dropped != 0 {
		t.Fatalf("empty compact = %d/%d, %v", kept, dropped, err)
	}
	// Twice in a row is fine.
	if _, _, err := Compact(path); err != nil {
		t.Fatal(err)
	}
}
