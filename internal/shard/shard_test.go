package shard

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestDefaultDeterministic: every node computing the default map from the
// same site list must get the identical map — including when the site list
// arrives in a different order.
func TestDefaultDeterministic(t *testing.T) {
	a := Default([]int{1, 2, 3, 4}, 4)
	b := Default([]int{4, 2, 1, 3}, 4)
	if a.Format() != b.Format() {
		t.Fatalf("default map differs across nodes:\n%s\nvs\n%s", a.Format(), b.Format())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	keys := []string{"", "a", "user:42", "zzzzzz"}
	for i := 0; i < 500; i++ {
		keys = append(keys, fmt.Sprintf("k%d", i))
	}
	for _, key := range keys {
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("owner of %q differs: %d vs %d", key, a.Owner(key), b.Owner(key))
		}
	}
}

// TestDefaultCoverage: the map covers the whole hash space with no gaps or
// overlaps, for a spread of cluster sizes and shard counts, and every key is
// owned by exactly one shard.
func TestDefaultCoverage(t *testing.T) {
	for _, sites := range [][]int{{1}, {1, 2}, {1, 2, 3}, {1, 2, 3, 4, 5}, {7, 3, 11}} {
		for _, per := range []int{1, 2, 8} {
			m := Default(sites, per)
			if err := m.Validate(); err != nil {
				t.Fatalf("sites=%v per=%d: %v", sites, per, err)
			}
			if got, want := len(m.Shards), len(sites)*per; got != want {
				t.Fatalf("sites=%v per=%d: %d shards, want %d", sites, per, got, want)
			}
			// Boundary points: each shard's Start and End, and their
			// neighbours, must land in exactly one shard by linear scan.
			for _, s := range m.Shards {
				for _, h := range []uint64{s.Start, s.End, s.Start + 1, s.End - 1} {
					owners := 0
					for _, sh := range m.Shards {
						if sh.Contains(h) {
							owners++
						}
					}
					if owners != 1 {
						t.Fatalf("sites=%v per=%d: hash %#x owned by %d shards", sites, per, h, owners)
					}
					if got := m.ShardAt(h); !got.Contains(h) {
						t.Fatalf("ShardAt(%#x) returned non-containing shard %+v", h, got)
					}
				}
			}
		}
	}
	// Many keys: the binary-search lookup agrees with a linear scan.
	m := Default([]int{1, 2, 3, 4}, 4)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		h := Hash(key)
		var want Shard
		found := false
		for _, sh := range m.Shards {
			if sh.Contains(h) {
				want, found = sh, true
				break
			}
		}
		if !found {
			t.Fatalf("hash of %q not covered", key)
		}
		if got := m.ShardOf(key); got.ID != want.ID {
			t.Fatalf("ShardOf(%q) = shard %d, linear scan says %d", key, got.ID, want.ID)
		}
	}
}

// TestFormatParseRoundTrip: the textual map file reproduces the map exactly.
func TestFormatParseRoundTrip(t *testing.T) {
	m := Default([]int{1, 2, 3}, 2)
	m.Version = 7
	parsed, err := Parse(strings.NewReader("# a comment\n\n" + m.Format()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Format() != m.Format() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", parsed.Format(), m.Format())
	}
	if parsed.Version != 7 {
		t.Fatalf("version = %d, want 7", parsed.Version)
	}
}

// TestParseRejectsBadMaps: structural violations are parse errors.
func TestParseRejectsBadMaps(t *testing.T) {
	for name, text := range map[string]string{
		"no version": "shard 0 0000000000000000 ffffffffffffffff 1\n",
		"gap": "version 1\n" +
			"shard 0 0000000000000000 00000000000000ff 1\n" +
			"shard 1 0000000000000200 ffffffffffffffff 2\n",
		"overlap": "version 1\n" +
			"shard 0 0000000000000000 00000000000000ff 1\n" +
			"shard 1 0000000000000080 ffffffffffffffff 2\n",
		"uncovered tail": "version 1\n" +
			"shard 0 0000000000000000 00000000000000ff 1\n",
		"bad owner": "version 1\nshard 0 0000000000000000 ffffffffffffffff 0\n",
		"dup id": "version 1\n" +
			"shard 0 0000000000000000 00000000000000ff 1\n" +
			"shard 0 0000000000000100 ffffffffffffffff 2\n",
		"junk": "version 1\nshrd 0 0 1 1\n",
	} {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parse accepted a bad map", name)
		}
	}
}

// TestVersionMismatch: a request stamped with a different map version is
// rejected; version 0 (no map) passes for compatibility.
func TestVersionMismatch(t *testing.T) {
	m := Default([]int{1, 2}, 1)
	m.Version = 3
	if err := m.CheckVersion(3); err != nil {
		t.Fatalf("same version rejected: %v", err)
	}
	if err := m.CheckVersion(0); err != nil {
		t.Fatalf("zero version rejected: %v", err)
	}
	err := m.CheckVersion(4)
	if err == nil {
		t.Fatal("version 4 accepted against map version 3")
	}
	if !strings.Contains(err.Error(), "have 3, got 4") {
		t.Fatalf("unhelpful mismatch error: %v", err)
	}
	if vm, ok := err.(ErrVersionMismatch); !ok || vm.Have != 3 || vm.Got != 4 {
		t.Fatalf("error not an ErrVersionMismatch with fields: %#v", vm)
	}
	var nilMap *Map
	if err := nilMap.CheckVersion(9); err != nil {
		t.Fatalf("nil map rejected a version: %v", err)
	}
}

// TestRouterFanOut: keys in the same shard route to one participant; keys in
// different shards to several — and the participant set is exactly the owner
// set, sorted.
func TestRouterFanOut(t *testing.T) {
	m := Default([]int{1, 2, 3, 4}, 1)
	r := &Router{Map: m}

	// Collect keys per owner by sampling.
	byOwner := map[int][]string{}
	for i := 0; len(byOwner[1]) < 3 || len(byOwner[2]) < 3 || len(byOwner[3]) < 3 || len(byOwner[4]) < 3; i++ {
		k := fmt.Sprintf("sample-%d", i)
		o := r.Site(k)
		byOwner[o] = append(byOwner[o], k)
	}

	// Single-shard transaction: all keys owned by site 2 -> one participant.
	single := r.Participants(byOwner[2][:3])
	if len(single) != 1 || single[0] != 2 {
		t.Fatalf("single-shard participants = %v, want [2]", single)
	}
	if g := r.Group(byOwner[2][:3]); len(g) != 1 || len(g[2]) != 3 {
		t.Fatalf("single-shard group = %v", g)
	}

	// Cross-shard transaction: one key each at sites 3, 1, 4 -> three
	// participants, sorted.
	cross := r.Participants([]string{byOwner[3][0], byOwner[1][0], byOwner[4][0]})
	if len(cross) != 3 || cross[0] != 1 || cross[1] != 3 || cross[2] != 4 {
		t.Fatalf("cross-shard participants = %v, want [1 3 4]", cross)
	}
}

// TestDefaultBalance: with many shards, key ownership spreads over every
// site (a smoke check that the hash and the ranges interact sanely).
func TestDefaultBalance(t *testing.T) {
	m := Default([]int{1, 2, 3, 4}, 8)
	counts := map[int]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[m.Owner(fmt.Sprintf("user:%d", i))]++
	}
	for site := 1; site <= 4; site++ {
		if counts[site] < n/10 {
			t.Fatalf("site %d owns only %d/%d keys: %v", site, counts[site], n, counts)
		}
	}
}

// TestLastShardEndsAtMax pins the exact coverage of the top of the hash
// space (a regression guard for off-by-one range arithmetic).
func TestLastShardEndsAtMax(t *testing.T) {
	for _, per := range []int{1, 3} {
		m := Default([]int{1, 2, 3}, per)
		last := m.Shards[len(m.Shards)-1]
		if last.End != math.MaxUint64 {
			t.Fatalf("last shard ends at %#x", last.End)
		}
		if got := m.ShardAt(math.MaxUint64); got.ID != last.ID {
			t.Fatalf("MaxUint64 owned by shard %d, want %d", got.ID, last.ID)
		}
	}
}
