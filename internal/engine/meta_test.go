package engine

import (
	"encoding/hex"
	"reflect"
	"testing"
)

// TestMetaGolden pins the cohort meta and vote payload bytes: one fixed
// value each, its hex captured before the decoders moved onto package codec.
func TestMetaGolden(t *testing.T) {
	meta := TxMeta{Coordinator: 1, Participants: []int{1, 2, 300}}
	redo := []byte{0x02, 0x00}
	const wantMeta, wantVote = "01030102ac02", "0601030102ac020200"
	if got := hex.EncodeToString(encodeMeta(meta)); got != wantMeta {
		t.Errorf("meta %s, want %s", got, wantMeta)
	}
	if got := hex.EncodeToString(encodeVotePayload(meta, redo)); got != wantVote {
		t.Errorf("vote payload %s, want %s", got, wantVote)
	}
	if got, err := decodeMeta(encodeMeta(meta)); err != nil || !reflect.DeepEqual(got, meta) {
		t.Errorf("meta decoded %+v, %v", got, err)
	}
	if got, err := decodeVotePayload(encodeVotePayload(meta, redo)); err != nil || !reflect.DeepEqual(got, votePayload{Meta: meta, Redo: redo}) {
		t.Errorf("vote payload decoded %+v, %v", got, err)
	}
}

// FuzzDecodeMeta: arbitrary bytes never panic decodeMeta or
// decodeVotePayload, a decoded cohort stays within maxCohort, and whatever
// either accepts re-encodes to a body that decodes to the same value.
func FuzzDecodeMeta(f *testing.F) {
	meta := TxMeta{Coordinator: 1, Participants: []int{1, 2, 3}}
	f.Add(encodeMeta(meta))
	f.Add(encodeVotePayload(meta, []byte{0x02, 0x00}))
	f.Add(encodeVotePayload(meta, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		if m, err := decodeMeta(p); err == nil {
			if len(m.Participants) > maxCohort {
				t.Fatalf("meta %x decoded a cohort of %d", p, len(m.Participants))
			}
			if m2, err := decodeMeta(encodeMeta(m)); err != nil || !reflect.DeepEqual(m2, m) {
				t.Fatalf("meta %x: %+v came back %+v, %v", p, m, m2, err)
			}
		}
		if v, err := decodeVotePayload(p); err == nil {
			if v2, err := decodeVotePayload(encodeVotePayload(v.Meta, v.Redo)); err != nil || !reflect.DeepEqual(v2, v) {
				t.Fatalf("vote payload %x: %+v came back %+v, %v", p, v, v2, err)
			}
		}
	})
}
