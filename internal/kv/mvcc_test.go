package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"nbcommit/internal/clock"
)

// commitOne runs a full single-key transaction and returns the commit
// timestamp it was stamped with.
func commitOne(t *testing.T, s *Store, id, key, val string) uint64 {
	t.Helper()
	if err := s.Begin(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(id, key, val); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(id); err != nil {
		t.Fatal(err)
	}
	return s.CommitTS()
}

// --- Satellite: read-your-own-writes audit -------------------------------

func TestReadYourOwnWrites(t *testing.T) {
	type step struct {
		op  string // "put", "del", "get"
		val string // for put; expected value for get
		err error  // expected error for get
	}
	cases := []struct {
		name      string
		committed string // pre-committed value for key "k" ("" = absent)
		steps     []step
	}{
		{name: "put then get", steps: []step{
			{op: "put", val: "v1"},
			{op: "get", val: "v1"},
		}},
		{name: "put overwrites committed", committed: "old", steps: []step{
			{op: "get", val: "old"},
			{op: "put", val: "new"},
			{op: "get", val: "new"},
		}},
		{name: "delete hides committed", committed: "old", steps: []step{
			{op: "del"},
			{op: "get", err: ErrNotFound},
		}},
		{name: "put then delete", steps: []step{
			{op: "put", val: "v1"},
			{op: "del"},
			{op: "get", err: ErrNotFound},
		}},
		{name: "delete then put resurrects", committed: "old", steps: []step{
			{op: "del"},
			{op: "put", val: "v2"},
			{op: "get", val: "v2"},
		}},
		{name: "staged empty value is a value", steps: []step{
			{op: "put", val: ""},
			{op: "get", val: ""},
		}},
		{name: "no staged op falls through to committed", committed: "old", steps: []step{
			{op: "get", val: "old"},
		}},
		{name: "delete of absent key", steps: []step{
			{op: "del"},
			{op: "get", err: ErrNotFound},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestStore()
			if tc.committed != "" || tc.name == "put overwrites committed" {
				if tc.committed != "" {
					commitOne(t, s, "setup", "k", tc.committed)
				}
			}
			if err := s.Begin("t1"); err != nil {
				t.Fatal(err)
			}
			for i, st := range tc.steps {
				switch st.op {
				case "put":
					if err := s.Put("t1", "k", st.val); err != nil {
						t.Fatalf("step %d put: %v", i, err)
					}
				case "del":
					if err := s.Delete("t1", "k"); err != nil {
						t.Fatalf("step %d del: %v", i, err)
					}
				case "get":
					v, err := s.Get("t1", "k")
					if st.err != nil {
						if !errors.Is(err, st.err) {
							t.Fatalf("step %d get err = %v, want %v", i, err, st.err)
						}
					} else if err != nil || v != st.val {
						t.Fatalf("step %d get = %q, %v, want %q", i, v, err, st.val)
					}
				}
			}
			// Staged state must stay invisible outside the transaction.
			if v, ok := s.Read("k"); ok != (tc.committed != "") || v != tc.committed {
				t.Fatalf("committed view = %q, %v, want %q", v, ok, tc.committed)
			}
		})
	}
}

// --- Satellite: lock waits on the injected clock --------------------------

// TestLockTimeoutUsesInjectedClock pins the determinism fix: with a virtual
// clock injected, a lock wait must not expire on real time — only advancing
// the virtual clock fires the timeout. Before the fix, acquire() used
// time.Now/time.NewTimer and deadlock-resolution timing escaped simulation
// control.
func TestLockTimeoutUsesInjectedClock(t *testing.T) {
	vc := clock.NewVirtual()
	s := NewStore(Options{LockTimeout: 100 * time.Millisecond, Clock: vc})
	s.Begin("t1")
	s.Begin("t2")
	if err := s.Put("t1", "a", "1"); err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() { res <- s.Put("t2", "a", "2") }()
	// Wait until the contender parks on a virtual timer.
	deadline := time.Now().Add(5 * time.Second)
	for _, armed := vc.NextDeadline(); !armed; _, armed = vc.NextDeadline() {
		if time.Now().After(deadline) {
			t.Fatal("waiter never scheduled a virtual-clock timer")
		}
		time.Sleep(time.Millisecond)
	}
	// Real time passes well beyond LockTimeout; the virtual clock stands
	// still, so the wait must not resolve.
	select {
	case err := <-res:
		t.Fatalf("lock wait resolved off the virtual clock: %v", err)
	case <-time.After(150 * time.Millisecond):
	}
	vc.Advance(100 * time.Millisecond)
	select {
	case err := <-res:
		if !errors.Is(err, ErrLockTimeout) {
			t.Fatalf("after virtual advance: %v, want ErrLockTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("virtual advance did not fire the lock timeout")
	}
}

// TestVirtualClockReleaseStillWakes: the wake-on-release path is
// channel-based and independent of the clock; a commit must grant the
// waiter without any virtual-time advance.
func TestVirtualClockReleaseStillWakes(t *testing.T) {
	vc := clock.NewVirtual()
	s := NewStore(Options{LockTimeout: 100 * time.Millisecond, Clock: vc})
	s.Begin("t1")
	s.Begin("t2")
	if err := s.Put("t1", "a", "1"); err != nil {
		t.Fatal(err)
	}
	res := make(chan error, 1)
	go func() { res <- s.Put("t2", "a", "2") }()
	deadline := time.Now().Add(5 * time.Second)
	for _, armed := vc.NextDeadline(); !armed; _, armed = vc.NextDeadline() {
		if time.Now().After(deadline) {
			t.Fatal("waiter never scheduled a virtual-clock timer")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Commit("t1"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-res:
		if err != nil {
			t.Fatalf("waiter after release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("release did not wake the waiter without a clock advance")
	}
}

// --- Tentpole: version chains, watermark, snapshots, GC -------------------

func TestVersionChainsAndReadAt(t *testing.T) {
	s := newTestStore()
	ts1 := commitOne(t, s, "t1", "a", "1")
	ts2 := commitOne(t, s, "t2", "a", "2")
	if ts2 <= ts1 {
		t.Fatalf("commit timestamps not monotone: %d then %d", ts1, ts2)
	}
	if v, err := s.ReadAt(ts1, "a"); err != nil || v != "1" {
		t.Fatalf("ReadAt(ts1) = %q, %v", v, err)
	}
	if v, err := s.ReadAt(ts2, "a"); err != nil || v != "2" {
		t.Fatalf("ReadAt(ts2) = %q, %v", v, err)
	}
	if _, err := s.ReadAt(ts1-1, "a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadAt before first version: %v", err)
	}
	// Tombstones are versions too: reads above see the delete, reads below
	// still see history.
	s.Begin("t3")
	if err := s.Delete("t3", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare("t3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("t3"); err != nil {
		t.Fatal(err)
	}
	ts3 := s.CommitTS()
	if _, err := s.ReadAt(ts3, "a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadAt after delete: %v", err)
	}
	if v, err := s.ReadAt(ts2, "a"); err != nil || v != "2" {
		t.Fatalf("history below tombstone: %q, %v", v, err)
	}
	if _, ok := s.Read("a"); ok {
		t.Fatal("latest view should see the delete")
	}
}

func TestWatermarkExcludesInDoubtPrepare(t *testing.T) {
	s := newTestStore()
	commitOne(t, s, "t0", "a", "old")
	base := s.StableTS()
	if base != s.CommitTS() {
		t.Fatalf("stable %d != commit %d with nothing in doubt", base, s.CommitTS())
	}
	// Prepare but do not decide: the transaction is in doubt.
	s.Begin("w")
	if err := s.Put("w", "a", "new"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare("w"); err != nil {
		t.Fatal(err)
	}
	wm := s.Watermark()
	if wm == 0 {
		t.Fatal("watermark should mark the in-doubt prepare")
	}
	st := s.StableTS()
	if st >= wm {
		t.Fatalf("stable ts %d not below watermark %d", st, wm)
	}
	// A snapshot taken now must read below the watermark: the old value,
	// never the prepared-but-undecided one.
	v, ts, err := s.SnapshotGet("a")
	if err != nil || v != "old" {
		t.Fatalf("SnapshotGet during in-doubt = %q, %v", v, err)
	}
	if ts != st {
		t.Fatalf("snapshot ts %d != stable %d", ts, st)
	}
	// Decision applies: watermark clears, the new value becomes stable.
	if err := s.Commit("w"); err != nil {
		t.Fatal(err)
	}
	if s.Watermark() != 0 {
		t.Fatalf("watermark %d after decision", s.Watermark())
	}
	if v, _, err := s.SnapshotGet("a"); err != nil || v != "new" {
		t.Fatalf("SnapshotGet after commit = %q, %v", v, err)
	}
	if s.StableTS() != s.CommitTS() {
		t.Fatalf("stable %d != commit %d after resolve", s.StableTS(), s.CommitTS())
	}
	// Abort clears the reservation too.
	s.Begin("w2")
	if err := s.Put("w2", "a", "never"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prepare("w2"); err != nil {
		t.Fatal(err)
	}
	if s.Watermark() == 0 {
		t.Fatal("second prepare not in doubt")
	}
	if err := s.Abort("w2"); err != nil {
		t.Fatal(err)
	}
	if s.Watermark() != 0 {
		t.Fatal("abort left the watermark set")
	}
	if v, _, err := s.SnapshotGet("a"); err != nil || v != "new" {
		t.Fatalf("SnapshotGet after abort = %q, %v", v, err)
	}
}

func TestSnapshotIsStableUnderLaterWrites(t *testing.T) {
	s := newTestStore()
	commitOne(t, s, "t1", "a", "1")
	ts := s.AcquireSnapshot()
	defer s.ReleaseSnapshot(ts)
	commitOne(t, s, "t2", "a", "2")
	commitOne(t, s, "t3", "a", "3")
	if v, err := s.ReadAt(ts, "a"); err != nil || v != "1" {
		t.Fatalf("pinned snapshot moved: %q, %v", v, err)
	}
}

func TestGCDropsSupersededVersions(t *testing.T) {
	s := newTestStore()
	commitOne(t, s, "t1", "a", "1")
	ts1 := s.CommitTS()
	commitOne(t, s, "t2", "a", "2")
	commitOne(t, s, "t3", "a", "3")
	if keys, vers := s.VersionStats(); keys != 1 || vers != 3 {
		t.Fatalf("stats = %d keys, %d versions", keys, vers)
	}
	kept, dropped := s.GC()
	if kept != 1 || dropped != 2 {
		t.Fatalf("GC = kept %d, dropped %d", kept, dropped)
	}
	if v, _, err := s.SnapshotGet("a"); err != nil || v != "3" {
		t.Fatalf("after GC = %q, %v", v, err)
	}
	// Reads below the floor are refused, not silently wrong.
	if _, err := s.ReadAt(ts1, "a"); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("read below GC floor: %v", err)
	}
}

func TestGCRespectsSnapshotPins(t *testing.T) {
	s := newTestStore()
	commitOne(t, s, "t1", "a", "1")
	pin := s.AcquireSnapshot()
	commitOne(t, s, "t2", "a", "2")
	commitOne(t, s, "t3", "a", "3")
	if _, dropped := s.GC(); dropped != 0 {
		t.Fatalf("GC dropped %d versions readable by a pinned snapshot", dropped)
	}
	if v, err := s.ReadAt(pin, "a"); err != nil || v != "1" {
		t.Fatalf("pinned read after GC = %q, %v", v, err)
	}
	s.ReleaseSnapshot(pin)
	if _, dropped := s.GC(); dropped != 2 {
		t.Fatal("release did not unpin the GC floor")
	}
	if _, err := s.ReadAt(pin, "a"); !errors.Is(err, ErrSnapshotTooOld) {
		t.Fatalf("read at released pin: %v", err)
	}
}

func TestGCDropsSettledTombstones(t *testing.T) {
	s := newTestStore()
	commitOne(t, s, "t1", "a", "1")
	s.Begin("t2")
	if err := s.Delete("t2", "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit("t2"); err != nil {
		t.Fatal(err)
	}
	s.GC()
	if keys, vers := s.VersionStats(); keys != 0 || vers != 0 {
		t.Fatalf("settled tombstone survived GC: %d keys, %d versions", keys, vers)
	}
	if _, ok := s.Read("a"); ok {
		t.Fatal("deleted key readable after GC")
	}
}

func TestSnapshotPinsAreRefcounted(t *testing.T) {
	s := newTestStore()
	commitOne(t, s, "t1", "a", "1")
	p1 := s.AcquireSnapshot()
	p2 := s.AcquireSnapshot()
	if p1 != p2 {
		t.Fatalf("same stable ts pinned twice: %d, %d", p1, p2)
	}
	commitOne(t, s, "t2", "a", "2")
	s.ReleaseSnapshot(p1)
	if _, dropped := s.GC(); dropped != 0 {
		t.Fatal("GC ignored the second refcount holder")
	}
	s.ReleaseSnapshot(p2)
	if _, dropped := s.GC(); dropped != 1 {
		t.Fatal("fully released pin still held the floor")
	}
}

func TestApplyRedoStampsVersions(t *testing.T) {
	s := newTestStore()
	s.ApplyRedo([]WriteOp{{Key: "a", Value: "1"}})
	ts1 := s.CommitTS()
	s.ApplyRedo([]WriteOp{{Key: "a", Value: "2"}})
	ts2 := s.CommitTS()
	if ts2 <= ts1 {
		t.Fatalf("redo timestamps not monotone: %d, %d", ts1, ts2)
	}
	if v, err := s.ReadAt(ts1, "a"); err != nil || v != "1" {
		t.Fatalf("redo history = %q, %v", v, err)
	}
}

// --- Satellite: EncodeWrites capacity math ---------------------------------

// encodedWritesCap mirrors the reservation formula in EncodeWrites. If the
// two drift, the cap assertion below catches the resize.
func encodedWritesCap(ops []WriteOp) int {
	size := 1 + binary.MaxVarintLen64
	for _, op := range ops {
		size += 3*binary.MaxVarintLen64 + len(op.Key) + len(op.Value)
	}
	return size
}

// TestEncodeWritesNoResize asserts the single up-front allocation is never
// grown by append: the returned slice's capacity must be exactly the
// reservation (a resize would round up to an allocator size class), and the
// whole encode costs one allocation.
func TestEncodeWritesNoResize(t *testing.T) {
	long := make([]byte, 1<<12)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	cases := [][]WriteOp{
		nil,
		{{Key: "a", Value: "1"}},
		{{Key: "a", Value: "1"}, {Key: "b", Delete: true}, {Key: "", Value: ""}},
		{{Key: string(long), Value: string(long)}, {Key: "k", Value: string(long), Delete: false}},
	}
	// 32 small ops: the case where per-op underestimation compounds.
	var many []WriteOp
	for i := 0; i < 32; i++ {
		many = append(many, WriteOp{Key: fmt.Sprintf("key-%02d", i), Value: fmt.Sprintf("val-%02d", i), Delete: i%3 == 0})
	}
	cases = append(cases, many)

	for i, ops := range cases {
		p := EncodeWrites(ops)
		if want := encodedWritesCap(ops); cap(p) != want {
			t.Fatalf("case %d: cap = %d, want the reservation %d (append resized on the prepare hot path)", i, cap(p), want)
		}
		if len(p) > cap(p) {
			t.Fatalf("case %d: len %d > cap %d", i, len(p), cap(p))
		}
		got, err := DecodeWrites(p)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if len(got) != len(ops) {
			t.Fatalf("case %d: round trip length %d != %d", i, len(got), len(ops))
		}
		for j := range ops {
			if got[j] != ops[j] {
				t.Fatalf("case %d op %d: %+v != %+v", i, j, got[j], ops[j])
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() { _ = EncodeWrites(many) })
	if allocs > 1 {
		t.Fatalf("EncodeWrites costs %.0f allocs, want 1", allocs)
	}
}

// --- Race coverage: snapshots, writers, and GC concurrently ----------------

// TestConcurrentSnapshotsWritersGC exercises the new snapshot and GC paths
// under the race detector: writers commit pairs of keys atomically, readers
// pin snapshots and must see each pair whole, GC runs throughout.
func TestConcurrentSnapshotsWritersGC(t *testing.T) {
	s := NewStore(Options{LockTimeout: 5 * time.Second})
	const writers, iters = 4, 50
	var wg, wgWriters sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wgWriters.Add(1)
		go func(w int) {
			defer wgWriters.Done()
			ka, kb := fmt.Sprintf("w%d-a", w), fmt.Sprintf("w%d-b", w)
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("w%d-t%d", w, i)
				v := strconv.Itoa(i)
				if err := s.Begin(id); err != nil {
					t.Error(err)
					return
				}
				if err := s.Put(id, ka, v); err != nil {
					t.Error(err)
					return
				}
				if err := s.Put(id, kb, v); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Prepare(id); err != nil {
					t.Error(err)
					return
				}
				if err := s.Commit(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := r % writers
				ka, kb := fmt.Sprintf("w%d-a", w), fmt.Sprintf("w%d-b", w)
				ts := s.AcquireSnapshot()
				va, ea := s.ReadAt(ts, ka)
				vb, eb := s.ReadAt(ts, kb)
				s.ReleaseSnapshot(ts)
				if errors.Is(ea, ErrSnapshotTooOld) || errors.Is(eb, ErrSnapshotTooOld) {
					t.Errorf("pinned snapshot %d GCed under reader", ts)
					return
				}
				if (ea == nil) != (eb == nil) || (ea == nil && va != vb) {
					t.Errorf("torn snapshot at %d: %q(%v) vs %q(%v)", ts, va, ea, vb, eb)
					return
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.GC()
			}
		}
	}()

	// Writers finish on their own; then stop readers and GC.
	wgWriters.Wait()
	close(stop)
	wg.Wait()

	s.GC()
	for w := 0; w < writers; w++ {
		want := strconv.Itoa(iters - 1)
		if v, _ := s.Read(fmt.Sprintf("w%d-a", w)); v != want {
			t.Fatalf("w%d-a = %q, want %q", w, v, want)
		}
	}
}
