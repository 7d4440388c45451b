package main

import "testing"

func TestSelfTimeOverlappingChildren(t *testing.T) {
	all := []span{
		{ID: 1, Layer: layerClient, Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: layerEngine, Start: 0, End: 100},
		// Two log forces at two participants, overlapping on [30,50).
		{ID: 3, Parent: 2, Layer: layerWAL, Start: 10, End: 50},
		{ID: 4, Parent: 2, Layer: layerWAL, Start: 30, End: 70},
		// A message that is still in flight when the verb returns: only
		// [90,100) is on the client's path.
		{ID: 5, Parent: 2, Layer: layerTransport, Start: 90, End: 130},
		// Not under any operation: ignored.
		{ID: 6, Layer: layerKV, Start: 0, End: 1000},
	}
	got := selfTimes(all)
	want := map[string]float64{
		layerEngine:    30, // 100 minus the union [10,70) and [90,100)
		layerWAL:       60, // the union, not 40+40
		layerTransport: 10,
	}
	var sum float64
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("%s self = %v, want %v", layer, got[layer], w)
		}
		sum += got[layer]
	}
	if got[layerClient] != 0 || got[layerKV] != 0 {
		t.Errorf("client = %v, kv = %v, want 0 and 0", got[layerClient], got[layerKV])
	}
	if sum != 100 {
		t.Errorf("shares sum to %v, want the root's 100", sum)
	}
}

func TestSelfTimeNestedAndGaps(t *testing.T) {
	all := []span{
		{ID: 1, Layer: layerClient, Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: layerNodeapi, Start: 5, End: 45}, // a PUTK verb
		{ID: 3, Parent: 2, Layer: layerRemote, Start: 10, End: 40}, // its round trip
		{ID: 4, Parent: 3, Layer: layerTransport, Start: 10, End: 20},
		{ID: 5, Parent: 3, Layer: layerRemote, Start: 20, End: 30}, // the peer's handler
		{ID: 6, Parent: 3, Layer: layerTransport, Start: 28, End: 40},
		{ID: 7, Parent: 1, Layer: layerEngine, Start: 50, End: 95}, // the COMMIT verb
	}
	got := selfTimes(all)
	want := map[string]float64{
		layerClient:    15, // [0,5) [45,50) [95,100): the driver between verbs
		layerNodeapi:   10, // [5,10) [40,45)
		layerRemote:    9,  // handler [20,28) alone, [28,30) shared with the reply
		layerTransport: 21, // [10,20), [30,40), and half of [28,30)
		layerEngine:    45,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("%s self = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestDurations(t *testing.T) {
	all := []span{{Name: "kv.commit", Start: 1000, End: 3000}, {Name: "kv.prepare", Start: 0, End: 500}, {Name: "kv.commit", Start: 0, End: 4000}}
	got := durations(all, "kv.commit")
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("durations = %v, want [2 4] µs", got)
	}
}
