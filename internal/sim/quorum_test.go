package sim

import "testing"

// partitionSchedule splits {1,2} from {3,4,5} right after the coordinator's
// PREPARE reached site 2 but not the far side: with fixed 1ms latency and
// 2ms stagger, the last vote arrives at 8ms, PREPARE goes to 2 at 8ms
// (arrives 9ms), to 3 at 10ms, to 4 at 12ms, to 5 at 14ms; partitioning at
// 9.5ms leaves group A = {1 (p), 2 (p)} and group B = {3, 4, 5} all in w.
func partitionSchedule(proto Protocol) Config {
	return Config{
		N: 5, Protocol: proto, Seed: 3,
		LatencyMin: Millisecond, LatencyMax: Millisecond,
		Stagger:         2 * Millisecond,
		PartitionAt:     9*Millisecond + 500*Microsecond,
		PartitionGroups: [][]int{{1, 2}, {3, 4, 5}},
	}
}

// TestPlainThreePCUnsafeUnderPartition demonstrates why the paper's
// "network never fails" assumption is load-bearing: under a partition each
// side runs termination independently — the side holding the buffer state
// commits, the side still in w aborts. Atomicity is violated.
func TestPlainThreePCUnsafeUnderPartition(t *testing.T) {
	res := RunTransaction(partitionSchedule(Central3PC))
	if res.Consistent {
		t.Fatalf("plain 3PC stayed consistent under partition; schedule missed: %+v", res.Sites)
	}
	if !res.Committed || !res.Aborted {
		t.Fatalf("expected mixed outcomes, got %+v", res.Sites)
	}
	// Group A committed (coordinator + site 2 were prepared); group B
	// aborted from w.
	if res.Sites[1].Phase != 'c' || res.Sites[2].Phase != 'c' {
		t.Errorf("group A should commit: %+v", res.Sites)
	}
	if res.Sites[3].Phase != 'a' || res.Sites[4].Phase != 'a' || res.Sites[5].Phase != 'a' {
		t.Errorf("group B should abort: %+v", res.Sites)
	}
}

// TestQuorumThreePCSafeUnderPartition: the same schedule under the
// quorum-based termination. The majority side {3,4,5} reaches its abort
// quorum and aborts; the minority side {1,2} — despite holding prepared
// states — cannot reach a commit quorum and blocks. No mixed outcomes.
func TestQuorumThreePCSafeUnderPartition(t *testing.T) {
	res := RunTransaction(partitionSchedule(Quorum3PC))
	if !res.Consistent {
		t.Fatalf("quorum 3PC inconsistent under partition: %+v", res.Sites)
	}
	if res.Committed {
		t.Fatalf("minority must not commit: %+v", res.Sites)
	}
	if !res.Aborted {
		t.Fatalf("majority should reach its abort quorum: %+v", res.Sites)
	}
	for _, id := range []int{3, 4, 5} {
		if res.Sites[id].Phase != 'a' {
			t.Errorf("site %d phase %c, want a", id, res.Sites[id].Phase)
		}
	}
	// The minority blocks (the safety price).
	if !res.Sites[1].Blocked && !res.Sites[2].Blocked {
		t.Errorf("minority group should block: %+v", res.Sites)
	}
}

// TestQuorumMajorityWithPreparedCommits: partition the other way — the
// majority side holds prepared states, so it reaches the commit quorum and
// commits; the minority blocks. (Partition at 11.5ms: PREPARE reached 2, 3
// and 4; groups {1,2,3} and {4,5} — group A has 3 prepared sites.)
func TestQuorumMajorityWithPreparedCommits(t *testing.T) {
	cfg := Config{
		N: 5, Protocol: Quorum3PC, Seed: 3,
		LatencyMin: Millisecond, LatencyMax: Millisecond,
		Stagger:         2 * Millisecond,
		PartitionAt:     11*Millisecond + 500*Microsecond,
		PartitionGroups: [][]int{{1, 2, 3}, {4, 5}},
	}
	res := RunTransaction(cfg)
	if !res.Consistent {
		t.Fatalf("inconsistent: %+v", res.Sites)
	}
	if !res.Committed {
		t.Fatalf("majority with prepared sites should commit: %+v", res.Sites)
	}
	if res.Aborted {
		t.Fatalf("nobody may abort: %+v", res.Sites)
	}
	for _, id := range []int{1, 2, 3} {
		if res.Sites[id].Phase != 'c' {
			t.Errorf("site %d phase %c, want c", id, res.Sites[id].Phase)
		}
	}
	if !res.Sites[4].Blocked && !res.Sites[5].Blocked {
		t.Errorf("minority should block: %+v", res.Sites)
	}
}

// TestQuorumFailureFree: without failures the quorum protocol is just the
// central 3PC (same message pattern, same outcome).
func TestQuorumFailureFree(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		res := RunTransaction(Config{N: n, Protocol: Quorum3PC, Seed: 9})
		if !res.Committed || res.Blocked || !res.Consistent {
			t.Fatalf("n=%d: %+v", n, res)
		}
		if want := 5 * (n - 1); res.Messages != want {
			t.Errorf("n=%d messages = %d, want %d", n, res.Messages, want)
		}
	}
}

// TestQuorumUnderCrashes: ordinary crash sweeps (no partitions) stay
// consistent and the majority keeps terminating.
func TestQuorumUnderCrashes(t *testing.T) {
	for k := 1; k <= 2; k++ {
		st := crashSweep(Quorum3PC, 5, 300, 17, randomCrashes(5, k, 15*Millisecond))
		if st.inconsistent != 0 {
			t.Errorf("k=%d: %d inconsistent", k, st.inconsistent)
		}
		// With at most 2 of 5 sites down the survivors always hold a
		// majority; nothing blocks.
		if st.blocked != 0 {
			t.Errorf("k=%d: %d blocked", k, st.blocked)
		}
		if st.undecided != 0 {
			t.Errorf("k=%d: %d undecided", k, st.undecided)
		}
	}
}

// TestQuorumMinorityOfSurvivorsBlocks: with 3 of 5 sites crashed the
// survivors cannot form a quorum and must block rather than guess.
func TestQuorumMinorityOfSurvivorsBlocks(t *testing.T) {
	st := crashSweep(Quorum3PC, 5, 300, 17, randomCrashes(5, 3, 15*Millisecond))
	if st.inconsistent != 0 {
		t.Fatalf("%d inconsistent", st.inconsistent)
	}
	if st.blocked == 0 {
		t.Fatal("2-of-5 survivor groups should block under the quorum rule")
	}
}

// TestQuorumPartitionSweep: random partition times across the whole
// protocol window never produce an inconsistency under the quorum protocol,
// while plain 3PC does for some times.
func TestQuorumPartitionSweep(t *testing.T) {
	inconsistentPlain := 0
	for i := 0; i < 200; i++ {
		at := Time(i) * 100 * Microsecond
		cfg := partitionSchedule(Quorum3PC)
		cfg.PartitionAt = at + 1
		if res := RunTransaction(cfg); !res.Consistent {
			t.Fatalf("quorum 3PC inconsistent with partition at %d: %+v", at, res.Sites)
		}
		cfg = partitionSchedule(Central3PC)
		cfg.PartitionAt = at + 1
		if res := RunTransaction(cfg); !res.Consistent {
			inconsistentPlain++
		}
	}
	if inconsistentPlain == 0 {
		t.Error("plain 3PC never violated atomicity across the partition sweep")
	}
}

// TestQuorumWeightedVotes: Skeen's quorum protocol supports weighted votes.
// Giving site 2 weight 3 lets the {1,2} side carry the quorum (total weight
// 7, quorum 4, side weight 1+3=4): the prepared minority-by-count side
// commits and the majority-by-count side blocks.
func TestQuorumWeightedVotes(t *testing.T) {
	cfg := partitionSchedule(Quorum3PC)
	cfg.Weights = map[int]int{2: 3}
	res := RunTransaction(cfg)
	if !res.Consistent {
		t.Fatalf("inconsistent: %+v", res.Sites)
	}
	if !res.Committed || res.Aborted {
		t.Fatalf("weighted side should commit: %+v", res.Sites)
	}
	if res.Sites[1].Phase != 'c' || res.Sites[2].Phase != 'c' {
		t.Errorf("group A should commit: %+v", res.Sites)
	}
	// The other side (weight 3 < quorum 4) blocks.
	for _, id := range []int{3, 4, 5} {
		if res.Sites[id].Phase == 'a' || res.Sites[id].Phase == 'c' {
			t.Errorf("site %d decided (%c) without a quorum", id, res.Sites[id].Phase)
		}
	}
	if !res.Blocked {
		t.Error("the underweight side should block")
	}
}
