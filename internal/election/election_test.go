package election

import "testing"

func TestDeterministic(t *testing.T) {
	alive := func(s int) bool { return s != 2 }
	got, ok := Deterministic(alive, []int{3, 2, 4})
	if !ok || got != 3 {
		t.Fatalf("Deterministic = %d, %v", got, ok)
	}
	got, ok = Deterministic(func(int) bool { return true }, []int{9, 5, 7})
	if !ok || got != 5 {
		t.Fatalf("Deterministic = %d, %v", got, ok)
	}
	if _, ok := Deterministic(func(int) bool { return false }, []int{1, 2}); ok {
		t.Fatal("no alive candidates should report failure")
	}
	if _, ok := Deterministic(func(int) bool { return true }, nil); ok {
		t.Fatal("empty candidate list should report failure")
	}
}
