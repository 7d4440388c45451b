package nodeapi

import (
	"fmt"
	"strings"
	"testing"
)

// pickKey probes for a key the cluster's shard map places at the wanted
// site, so tests can address local and remote stores deliberately.
func pickKey(t *testing.T, s *Session, site int, taken map[string]bool) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("rok-%d", i)
		if taken[k] {
			continue
		}
		if s.api.Router.Site(k) == site {
			taken[k] = true
			return k
		}
	}
	t.Fatalf("no key found for site %d", site)
	return ""
}

func TestReadOnlySessionFastPath(t *testing.T) {
	nodes := testCluster(t, 3)
	s := &Session{api: api(nodes[1]), touched: map[int]bool{}}
	taken := map[string]bool{}
	kLocal := pickKey(t, s, 1, taken)  // served from the local store
	kRemote := pickKey(t, s, 2, taken) // served via one OpSnapGet RPC

	// Seed through a normal transaction.
	s.Execute("BEGIN")
	if got := s.Execute("PUTK " + kLocal + " v-local"); got != "OK" {
		t.Fatalf("PUTK = %q", got)
	}
	if got := s.Execute("PUTK " + kRemote + " v-remote"); got != "OK" {
		t.Fatalf("PUTK = %q", got)
	}
	if got := s.Execute("COMMIT"); got != "COMMITTED" {
		t.Fatalf("seed COMMIT = %q", got)
	}
	waitRead(t, nodes[1].store, kLocal, "v-local")
	waitRead(t, nodes[2].store, kRemote, "v-remote")

	// Read-only transaction: snapshot reads, writes refused, commit without
	// any protocol involvement.
	reply := s.Execute("BEGIN RO")
	if !strings.HasPrefix(reply, "OK ro-1-") {
		t.Fatalf("BEGIN RO = %q", reply)
	}
	roID := strings.TrimPrefix(reply, "OK ")
	if got := s.Execute("GETK " + kLocal); got != "VAL v-local" {
		t.Fatalf("RO GETK local = %q", got)
	}
	if got := s.Execute("GETK " + kRemote); got != "VAL v-remote" {
		t.Fatalf("RO GETK remote = %q", got)
	}
	for _, line := range []string{
		"PUTK " + kLocal + " nope",
		"DELK " + kLocal,
		"PUT 2 " + kRemote + " nope",
		"DEL 2 " + kRemote,
	} {
		if got := s.Execute(line); got != "ERR read-only transaction" {
			t.Fatalf("%q = %q, want read-only refusal", line, got)
		}
	}
	if got := s.Execute("COMMIT"); got != "COMMITTED" {
		t.Fatalf("RO COMMIT = %q", got)
	}
	// The fast path never enlisted anywhere: no engine or store state for
	// the RO transaction at any site.
	for id, nd := range nodes {
		for _, tx := range nd.site.Transactions() {
			if tx == roID {
				t.Fatalf("site %d engine tracked read-only transaction %s", id, roID)
			}
		}
		for _, tx := range nd.store.Pending() {
			if tx == roID {
				t.Fatalf("site %d store enlisted read-only transaction %s", id, roID)
			}
		}
	}

	// SGETK: one-shot snapshot reads without any transaction open.
	if got := s.Execute("SGETK " + kLocal); got != "VAL v-local" {
		t.Fatalf("SGETK local = %q", got)
	}
	if got := s.Execute("SGETK " + kRemote); got != "VAL v-remote" {
		t.Fatalf("SGETK remote = %q", got)
	}
	if got := s.Execute("SGETK missing-key"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("SGETK missing = %q", got)
	}
}

// A read-only transaction's view is pinned at first touch per site: writes
// committed after the pin stay invisible until the next transaction.
func TestReadOnlySnapshotStability(t *testing.T) {
	nodes := testCluster(t, 3)
	writer := &Session{api: api(nodes[1]), touched: map[int]bool{}}
	reader := &Session{api: api(nodes[1]), touched: map[int]bool{}}
	taken := map[string]bool{}
	kLocal := pickKey(t, writer, 1, taken)
	kRemote := pickKey(t, writer, 2, taken)

	writer.Execute("BEGIN")
	writer.Execute("PUTK " + kLocal + " one")
	writer.Execute("PUTK " + kRemote + " one")
	if got := writer.Execute("COMMIT"); got != "COMMITTED" {
		t.Fatalf("seed COMMIT = %q", got)
	}
	waitRead(t, nodes[1].store, kLocal, "one")
	waitRead(t, nodes[2].store, kRemote, "one")

	reader.Execute("BEGIN RO")
	if got := reader.Execute("GETK " + kLocal); got != "VAL one" {
		t.Fatalf("RO first read local = %q", got)
	}
	if got := reader.Execute("GETK " + kRemote); got != "VAL one" {
		t.Fatalf("RO first read remote = %q", got)
	}

	// Overwrite both keys while the read-only transaction is open.
	writer.Execute("BEGIN")
	writer.Execute("PUTK " + kLocal + " two")
	writer.Execute("PUTK " + kRemote + " two")
	if got := writer.Execute("COMMIT"); got != "COMMITTED" {
		t.Fatalf("overwrite COMMIT = %q", got)
	}
	waitRead(t, nodes[1].store, kLocal, "two")
	waitRead(t, nodes[2].store, kRemote, "two")

	// The pinned snapshot still serves the old values, locally and remotely.
	if got := reader.Execute("GETK " + kLocal); got != "VAL one" {
		t.Fatalf("pinned local read moved: %q", got)
	}
	if got := reader.Execute("GETK " + kRemote); got != "VAL one" {
		t.Fatalf("pinned remote read moved: %q", got)
	}
	if got := reader.Execute("COMMIT"); got != "COMMITTED" {
		t.Fatalf("RO COMMIT = %q", got)
	}

	if got := reader.Execute("GETK " + kLocal); !strings.HasPrefix(got, "ERR no open transaction") {
		t.Fatalf("read after RO COMMIT = %q", got)
	}

	// A fresh snapshot sees the new state.
	if got := reader.Execute("SGETK " + kLocal); got != "VAL two" {
		t.Fatalf("fresh SGETK local = %q", got)
	}
	if got := reader.Execute("SGETK " + kRemote); got != "VAL two" {
		t.Fatalf("fresh SGETK remote = %q", got)
	}

	// Snapshot reads do not wait for a writer holding the keys' locks: they
	// serve the last committed value.
	writer.Execute("BEGIN")
	writer.Execute("PUTK " + kLocal + " three")
	writer.Execute("PUTK " + kRemote + " three")
	reader.Execute("BEGIN RO")
	if got := reader.Execute("GETK " + kLocal); got != "VAL two" {
		t.Fatalf("RO read local under a writer's lock = %q", got)
	}
	if got := reader.Execute("GETK " + kRemote); got != "VAL two" {
		t.Fatalf("RO read remote under a writer's lock = %q", got)
	}
	reader.Execute("COMMIT")
	writer.Execute("ABORT")
}

// A missing key inside BEGIN RO still pins the site's snapshot: a key
// created afterwards stays invisible to this transaction (no phantom).
func TestReadOnlyMissingKeyPinsSnapshot(t *testing.T) {
	nodes := testCluster(t, 3)
	writer := &Session{api: api(nodes[1]), touched: map[int]bool{}}
	reader := &Session{api: api(nodes[1]), touched: map[int]bool{}}
	taken := map[string]bool{}
	kRemote := pickKey(t, writer, 2, taken)

	// Seed something unrelated at site 2 so its store has a nonzero stable
	// timestamp (a zero timestamp cannot be distinguished from "unpinned").
	seed := pickKey(t, writer, 2, taken)
	writer.Execute("BEGIN")
	writer.Execute("PUTK " + seed + " s")
	if got := writer.Execute("COMMIT"); got != "COMMITTED" {
		t.Fatalf("seed COMMIT = %q", got)
	}
	waitRead(t, nodes[2].store, seed, "s")

	reader.Execute("BEGIN RO")
	if got := reader.Execute("GETK " + kRemote); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("read of missing key = %q", got)
	}
	writer.Execute("BEGIN")
	writer.Execute("PUTK " + kRemote + " late")
	if got := writer.Execute("COMMIT"); got != "COMMITTED" {
		t.Fatalf("late COMMIT = %q", got)
	}
	waitRead(t, nodes[2].store, kRemote, "late")
	if got := reader.Execute("GETK " + kRemote); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("phantom: key created after the snapshot became visible: %q", got)
	}
	reader.Execute("COMMIT")
	if got := reader.Execute("SGETK " + kRemote); got != "VAL late" {
		t.Fatalf("fresh SGETK = %q", got)
	}
}
