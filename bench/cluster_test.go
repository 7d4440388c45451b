package main

import "testing"

func TestParseProcStat(t *testing.T) {
	// The command field may hold spaces and parentheses.
	stat := "4242 (kv node) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 77 33 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615"
	got, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 110 {
		t.Errorf("utime+stime = %d ticks, want 110", got)
	}
	if _, err := parseProcStat("garbage"); err == nil {
		t.Error("parseProcStat(garbage) succeeded")
	}
}
