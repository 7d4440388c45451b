package kv

import (
	"encoding/hex"
	"reflect"
	"testing"
)

// TestEncodeWritesGolden pins the redo write set's bytes: one fixed value,
// its hex captured before DecodeWrites moved onto package codec.
func TestEncodeWritesGolden(t *testing.T) {
	ops := []WriteOp{{Key: "a", Value: "1"}, {Key: "b", Delete: true}}
	const want = "0202016101310001620001"
	p := EncodeWrites(ops)
	if got := hex.EncodeToString(p); got != want {
		t.Fatalf("write set %s, want %s", got, want)
	}
	if got, err := DecodeWrites(p); err != nil || !reflect.DeepEqual(got, ops) {
		t.Fatalf("decoded %+v, %v", got, err)
	}
}
