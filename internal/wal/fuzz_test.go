package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzScan feeds arbitrary bytes to the log scanner: it must never panic,
// never error (corrupt tails are silently discarded), and whatever it
// recovers must survive a rewrite + rescan round trip.
func FuzzScan(f *testing.F) {
	// Seed corpus: a valid log, a truncated one, garbage, and a valid log
	// followed by reserved space a crash left behind.
	valid := func() []byte {
		dir := f.TempDir()
		path := filepath.Join(dir, "seed.wal")
		l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
		if err != nil {
			f.Fatal(err)
		}
		l.Append(Record{Type: RecVoteYes, TxID: "tx", Payload: []byte("payload")})
		l.Append(Record{Type: RecCommitted, TxID: "tx"})
		l.Close()
		data, _ := os.ReadFile(path)
		return data
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add([]byte("garbage garbage garbage"))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})
	f.Add(append(valid[:len(valid):len(valid)], make([]byte, 64<<10)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenFileLog(path, FileLogOptions{NoSync: true})
		if err != nil {
			t.Fatalf("open must tolerate corrupt logs: %v", err)
		}
		recs, err := l.Records()
		if err != nil {
			t.Fatal(err)
		}
		// Appends after a corrupt tail land cleanly.
		if _, err := l.Append(Record{Type: RecBegin, TxID: "post"}); err != nil {
			t.Fatal(err)
		}
		l.Close()

		l2, err := OpenFileLog(path, FileLogOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		recs2, err := l2.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs2) != len(recs)+1 {
			t.Fatalf("reopen lost records: %d then %d", len(recs), len(recs2))
		}
		for i := range recs {
			if recs2[i].Type != recs[i].Type || recs2[i].TxID != recs[i].TxID ||
				string(recs2[i].Payload) != string(recs[i].Payload) {
				t.Fatalf("record %d changed across rescan", i)
			}
		}
	})
}
