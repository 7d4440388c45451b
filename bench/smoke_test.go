package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs one workload end to end with one-second windows: real
// processes, both in-process passes, the read-back and restart checks. Every
// metric BENCHMARK.json names must come out, and the checks must pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := passConfig{
		root: root, buildDir: dir, outDir: dir, seed: 7,
		conns: 3, warmup: 200 * time.Millisecond, window: time.Second, nSlices: nSlices,
	}
	wl, _ := findWorkload("xshard-3pc")
	rep, err := measure(base, wl, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Fatalf("incorrect: %d failed, misses %v, failures %v", rep.Failed, rep.Check.Misses, rep.Failures)
	}
	if rep.Check.KeysRead == 0 || rep.Check.AtomicTxns == 0 || rep.Check.RestartTxns == 0 {
		t.Errorf("checks did not run: %+v", rep.Check)
	}
	for _, d := range endToEnd {
		if m, ok := rep.EndToEnd[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", d.name, m, d.unit)
		}
	}
	for _, d := range perLayer {
		if m, ok := rep.PerLayer[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("per-layer metric %s = %+v, want a value in %s", d.name, m, d.unit)
		}
	}
	// What this workload must exercise, and what it must not.
	for _, name := range []string{"engine.acks_p50_ms", "remote.rpcs_per_op", "transport.msgs_per_commit", "wal.append_wait_p50_us", "kv.prepare_p50_us", "engine.self_us_per_op"} {
		if rep.PerLayer[name].Value <= 0 {
			t.Errorf("%s = %v on xshard-3pc, want > 0", name, rep.PerLayer[name].Value)
		}
	}
	if v := rep.PerLayer["reads_per_s"].Value; v != 0 {
		t.Errorf("reads_per_s = %v on a write-only workload", v)
	}
	if _, err := os.Stat(filepath.Join(dir, "trace-xshard-3pc.json")); err != nil {
		t.Errorf("no trace file: %v", err)
	}
}
