package remote

import (
	"encoding/hex"
	"reflect"
	"testing"
)

// TestCodecGolden pins the KV-OP and KV-REPLY bytes: one fixed value each,
// its hex captured before the decoders moved onto package codec.
func TestCodecGolden(t *testing.T) {
	req := Request{ReqID: 300, TxID: "tx-1-0-7", Op: OpCommit, Enlist: true, Key: "k", Value: "v", MapVersion: 2, SnapTS: 9, Participants: []int{1, 2, 130}}
	rep := Reply{ReqID: 300, TS: 9, Err: "kv: key not found: k"}
	const (
		wantReq = "0185ac0202090874782d312d302d37016b01760301028201"
		wantRep = "0201ac0209146b763a206b6579206e6f7420666f756e643a206b"
	)
	if got := hex.EncodeToString(encodeRequest(req)); got != wantReq {
		t.Errorf("request %s, want %s", got, wantReq)
	}
	if got := hex.EncodeToString(encodeReply(rep)); got != wantRep {
		t.Errorf("reply %s, want %s", got, wantRep)
	}
	if got, err := DecodeRequest(encodeRequest(req)); err != nil || !reflect.DeepEqual(got, req) {
		t.Errorf("request decoded %+v, %v", got, err)
	}
	if got, err := DecodeReply(encodeReply(rep)); err != nil || got != rep {
		t.Errorf("reply decoded %+v, %v", got, err)
	}
}
