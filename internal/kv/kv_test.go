package kv

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTestStore() *Store {
	return NewStore(Options{LockTimeout: 50 * time.Millisecond})
}

func TestBasicTxnLifecycle(t *testing.T) {
	s := newTestStore()
	if err := s.Begin("t1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("t1"); !errors.Is(err, ErrTxnExists) {
		t.Fatalf("duplicate begin: %v", err)
	}
	if err := s.Put("t1", "a", "1"); err != nil {
		t.Fatal(err)
	}
	// Own writes visible inside the transaction, invisible outside.
	v, err := s.Get("t1", "a")
	if err != nil || v != "1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, ok := s.Read("a"); ok {
		t.Fatal("uncommitted write visible outside txn")
	}
	if err := s.Commit("t1"); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Read("a"); !ok || v != "1" {
		t.Fatalf("Read after commit = %q, %v", v, ok)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	s := newTestStore()
	s.Begin("t1")
	s.Put("t1", "a", "1")
	if err := s.Abort("t1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Read("a"); ok {
		t.Fatal("aborted write visible")
	}
	// Idempotent.
	if err := s.Abort("t1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Abort("never-existed"); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	s := newTestStore()
	s.Begin("t0")
	s.Put("t0", "a", "1")
	s.Commit("t0")

	s.Begin("t1")
	if err := s.Delete("t1", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("t1", "a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("own delete not observed: %v", err)
	}
	s.Commit("t1")
	if _, ok := s.Read("a"); ok {
		t.Fatal("deleted key still present")
	}
}

func TestGetMissingKey(t *testing.T) {
	s := newTestStore()
	s.Begin("t1")
	if _, err := s.Get("t1", "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownTxnErrors(t *testing.T) {
	s := newTestStore()
	if _, err := s.Get("zz", "a"); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("Get: %v", err)
	}
	if err := s.Put("zz", "a", "1"); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("Put: %v", err)
	}
	if _, err := s.Prepare("zz"); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("Prepare: %v", err)
	}
	if err := s.Commit("zz"); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("Commit: %v", err)
	}
}

func TestWriteConflictTimesOut(t *testing.T) {
	s := newTestStore()
	s.Begin("t1")
	s.Begin("t2")
	if err := s.Put("t1", "a", "1"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := s.Put("t2", "a", "2")
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("conflicting put: %v", err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("lock timeout returned too early")
	}
}

func TestSharedReadersCoexist(t *testing.T) {
	s := newTestStore()
	s.Begin("t0")
	s.Put("t0", "a", "1")
	s.Commit("t0")

	s.Begin("t1")
	s.Begin("t2")
	if _, err := s.Get("t1", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("t2", "a"); err != nil {
		t.Fatal(err)
	}
	// A writer must wait for both readers.
	s.Begin("t3")
	if err := s.Put("t3", "a", "2"); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("writer vs readers: %v", err)
	}
	s.Abort("t1")
	s.Abort("t2")
	if err := s.Put("t3", "a", "2"); err != nil {
		t.Fatal(err)
	}
}

func TestLockReleaseWakesWaiter(t *testing.T) {
	s := NewStore(Options{LockTimeout: 2 * time.Second})
	s.Begin("t1")
	s.Begin("t2")
	s.Put("t1", "a", "1")
	done := make(chan error, 1)
	go func() { done <- s.Put("t2", "a", "2") }()
	time.Sleep(20 * time.Millisecond)
	s.Commit("t1")
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not woken by release")
	}
	s.Commit("t2")
	if v, _ := s.Read("a"); v != "2" {
		t.Fatalf("a = %q", v)
	}
}

func TestDeadlockResolvedByTimeout(t *testing.T) {
	// t1 holds a and wants b; t2 holds b and wants a. One of them must time
	// out (the paper's deadlock-resolution reason for voting NO).
	s := newTestStore()
	s.Begin("t1")
	s.Begin("t2")
	if err := s.Put("t1", "a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t2", "b", "2"); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- s.Put("t1", "b", "x") }()
	go func() { errs <- s.Put("t2", "a", "x") }()
	e1, e2 := <-errs, <-errs
	if !errors.Is(e1, ErrLockTimeout) && !errors.Is(e2, ErrLockTimeout) {
		t.Fatalf("deadlock not broken: %v, %v", e1, e2)
	}
}

func TestPrepareFreezesTxn(t *testing.T) {
	s := newTestStore()
	s.Begin("t1")
	s.Put("t1", "a", "1")
	s.Put("t1", "b", "2")
	s.Delete("t1", "c")
	ops, err := s.Prepare("t1")
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 || ops[0].Key != "a" || ops[1].Key != "b" || !ops[2].Delete {
		t.Fatalf("write set = %+v", ops)
	}
	// Mutations after prepare are rejected.
	if err := s.Put("t1", "d", "3"); !errors.Is(err, ErrNotActive) {
		t.Fatalf("put after prepare: %v", err)
	}
	if _, err := s.Get("t1", "a"); !errors.Is(err, ErrNotActive) {
		t.Fatalf("get after prepare: %v", err)
	}
	if _, err := s.Prepare("t1"); !errors.Is(err, ErrNotActive) {
		t.Fatalf("double prepare: %v", err)
	}
	// Prepared transactions keep their locks.
	s.Begin("t2")
	if err := s.Put("t2", "a", "9"); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("prepared locks not held: %v", err)
	}
	if err := s.Commit("t1"); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Read("a"); v != "1" {
		t.Fatalf("a = %q", v)
	}
}

func TestEncodeDecodeWrites(t *testing.T) {
	ops := []WriteOp{{Key: "a", Value: "1"}, {Key: "b", Delete: true}}
	got, err := DecodeWrites(EncodeWrites(ops))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != ops[0] || got[1] != ops[1] {
		t.Fatalf("round trip = %+v", got)
	}
	if got, err := DecodeWrites(nil); err != nil || got != nil {
		t.Fatalf("empty payload: %v %v", got, err)
	}
	if _, err := DecodeWrites([]byte("garbage")); err == nil {
		t.Fatal("garbage should fail")
	}
	if got, err := DecodeWrites(append(EncodeWrites(ops), 0xde, 0xad)); err == nil {
		t.Fatalf("trailing bytes decoded to %+v", got)
	}
}

// TestDecodeWritesRefusesLegacyFormats: DecodeWrites reads one format. The
// write set {a=1, delete b} in either encoding no log holds, the v1 tag (a
// raw flags byte per op) or an untagged gob stream, is an error and never a
// partial write set. Both payloads are also FuzzDecodeWrites seeds.
func TestDecodeWritesRefusesLegacyFormats(t *testing.T) {
	var gobbed bytes.Buffer
	ops := []WriteOp{{Key: "a", Value: "1"}, {Key: "b", Delete: true}}
	if err := gob.NewEncoder(&gobbed).Encode(ops); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"v1", []byte{0x01, 2, 1, 'a', 1, '1', 0, 1, 'b', 0, 1}},
		{"gob", gobbed.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, err := DecodeWrites(tc.payload); err == nil || got != nil {
				t.Errorf("DecodeWrites = %+v, %v; want nil and an error", got, err)
			}
		})
	}
}

func TestApplyRedo(t *testing.T) {
	s := newTestStore()
	s.Begin("t0")
	s.Put("t0", "gone", "x")
	s.Commit("t0")
	s.ApplyRedo([]WriteOp{{Key: "a", Value: "1"}, {Key: "gone", Delete: true}})
	if v, _ := s.Read("a"); v != "1" {
		t.Fatalf("a = %q", v)
	}
	if _, ok := s.Read("gone"); ok {
		t.Fatal("redo delete not applied")
	}
}

func TestSnapshotKeysPending(t *testing.T) {
	s := newTestStore()
	s.Begin("t0")
	s.Put("t0", "b", "2")
	s.Put("t0", "a", "1")
	s.Commit("t0")
	snap := s.Snapshot()
	if len(snap) != 2 || snap["a"] != "1" {
		t.Fatalf("snapshot = %v", snap)
	}
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys = %v", keys)
	}
	s.Begin("t1")
	s.Begin("t2")
	if p := s.Pending(); len(p) != 2 || p[0] != "t1" {
		t.Fatalf("pending = %v", p)
	}
}

func TestConcurrentDisjointTxns(t *testing.T) {
	s := NewStore(Options{LockTimeout: time.Second})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("t%d", i)
			if err := s.Begin(id); err != nil {
				t.Error(err)
				return
			}
			key := fmt.Sprintf("k%d", i)
			if err := s.Put(id, key, id); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Prepare(id); err != nil {
				t.Error(err)
				return
			}
			if err := s.Commit(id); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if len(s.Snapshot()) != 16 {
		t.Fatalf("snapshot = %v", s.Snapshot())
	}
}

// TestQuickLastWriterWins: committing transactions serially, the store holds
// exactly the last committed value for every key.
func TestQuickLastWriterWins(t *testing.T) {
	f := func(keys []uint8, vals []uint8) bool {
		s := NewStore(Options{LockTimeout: time.Second})
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		want := map[string]string{}
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("t%d", i)
			k := fmt.Sprintf("k%d", keys[i]%8)
			v := fmt.Sprintf("v%d", vals[i])
			if err := s.Begin(id); err != nil {
				return false
			}
			if err := s.Put(id, k, v); err != nil {
				return false
			}
			if err := s.Commit(id); err != nil {
				return false
			}
			want[k] = v
		}
		snap := s.Snapshot()
		if len(snap) != len(want) {
			return false
		}
		for k, v := range want {
			if snap[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitDieYoungerDies(t *testing.T) {
	s := NewStore(Options{LockTimeout: time.Second, Policy: WaitDiePolicy})
	s.Begin("old") // seq 1
	s.Begin("new") // seq 2
	if err := s.Put("old", "k", "1"); err != nil {
		t.Fatal(err)
	}
	// The younger transaction dies immediately, no timeout wait.
	start := time.Now()
	err := s.Put("new", "k", "2")
	if !errors.Is(err, ErrWaitDie) {
		t.Fatalf("younger put = %v", err)
	}
	if time.Since(start) > 200*time.Millisecond {
		t.Fatal("wait-die should not wait")
	}
}

func TestWaitDieOlderWaits(t *testing.T) {
	s := NewStore(Options{LockTimeout: time.Second, Policy: WaitDiePolicy})
	s.Begin("old")
	s.Begin("new")
	if err := s.Put("new", "k", "1"); err != nil {
		t.Fatal(err)
	}
	// The older transaction is allowed to wait; release unblocks it.
	done := make(chan error, 1)
	go func() { done <- s.Put("old", "k", "2") }()
	time.Sleep(20 * time.Millisecond)
	if err := s.Commit("new"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("older waiter not granted after release")
	}
	if err := s.Commit("old"); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Read("k"); v != "2" {
		t.Fatalf("k = %q", v)
	}
}

func TestWaitDieNoDeadlock(t *testing.T) {
	// The classic cycle: t1 holds a wants b; t2 holds b wants a. Under
	// wait-die exactly the younger one dies, immediately.
	s := NewStore(Options{LockTimeout: 5 * time.Second, Policy: WaitDiePolicy})
	s.Begin("t1") // older
	s.Begin("t2") // younger
	if err := s.Put("t1", "a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("t2", "b", "2"); err != nil {
		t.Fatal(err)
	}
	// Younger wants older's lock: dies at once.
	if err := s.Put("t2", "a", "x"); !errors.Is(err, ErrWaitDie) {
		t.Fatalf("t2 = %v", err)
	}
	s.Abort("t2")
	// Older can now take b without any timeout.
	if err := s.Put("t1", "b", "y"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("t1"); err != nil {
		t.Fatal(err)
	}
}

func TestWaitDieSharedReadersUnaffected(t *testing.T) {
	s := NewStore(Options{LockTimeout: time.Second, Policy: WaitDiePolicy})
	s.Begin("t0")
	s.Put("t0", "k", "v")
	s.Commit("t0")
	s.Begin("old")
	s.Begin("new")
	if _, err := s.Get("old", "k"); err != nil {
		t.Fatal(err)
	}
	// A younger reader coexists with an older reader: no conflict, no die.
	if _, err := s.Get("new", "k"); err != nil {
		t.Fatal(err)
	}
}
