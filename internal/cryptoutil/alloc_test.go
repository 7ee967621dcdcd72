package cryptoutil

import (
	"crypto/hmac"
	"crypto/sha256"
	"testing"

	"repro/internal/types"
)

// macReply is a read reply with both versions populated, the largest
// payload a read returns.
func macReply() *types.ReadReply {
	v := types.Timestamp{Time: 9, ClientID: 4}
	return &types.ReadReply{ReqID: 77, Key: "user1234", ShardID: 0, ReplicaID: 3,
		Committed: &types.CommittedRead{Value: make([]byte, 64), WriterID: types.TxID{1}, Timestamp: v},
		Prepared:  &types.PreparedRead{Value: make([]byte, 64), WriterID: types.TxID{2}, WriterMeta: &types.TxMeta{Timestamp: v}},
	}
}

// TestReadMACAllocs pins SumReadMAC and CheckReadMAC at zero allocations:
// both run once per read reply, on the replica and on the client.
func TestReadMACAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	k := &MACKey{1, 2, 3}
	rr := macReply()
	rr.MAC = SumReadMAC(k, rr)
	if n := testing.AllocsPerRun(200, func() { SumReadMAC(k, rr) }); n != 0 {
		t.Fatalf("SumReadMAC allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { CheckReadMAC(k, rr) }); n != 0 {
		t.Fatalf("CheckReadMAC allocates %.1f times per call, want 0", n)
	}
	if !CheckReadMAC(k, rr) {
		t.Fatal("reply's own MAC rejected")
	}
	rr.MAC[31] ^= 1
	if CheckReadMAC(k, rr) {
		t.Fatal("corrupted MAC accepted")
	}
}

// TestVerifyPoolAllAllocs pins VerifyPool.All at two allocations a batch
// (its shared state and one helper closure), whatever the batch size.
func TestVerifyPoolAllAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	p := NewVerifyPool(2)
	defer p.Close()
	task := func(int) bool { return true }
	for _, n := range []int{6, 64} {
		if got := testing.AllocsPerRun(200, func() { p.All(n, task) }); got > 2 {
			t.Fatalf("All(%d) allocates %.1f times per batch, want at most 2", n, got)
		}
	}
}

// FuzzReadMAC checks that SumReadMAC equals crypto/hmac's HMAC-SHA256 of
// the reply payload, over random keys and replies. `go test` runs the
// seeds; run `go test -run '^$' -fuzz FuzzReadMAC ./internal/cryptoutil/`
// to explore.
func FuzzReadMAC(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint64(7), "k", int32(0), int32(3), uint8(3), []byte("v"), uint64(5))
	f.Add([]byte{}, uint64(0), "", int32(-1), int32(0), uint8(0), []byte{}, uint64(0))
	f.Add(make([]byte, 32), ^uint64(0), "user9", int32(2), int32(5), uint8(1), make([]byte, 5000), uint64(1)<<63)
	f.Fuzz(func(t *testing.T, key []byte, reqID uint64, k string, shard, replica int32, which uint8, value []byte, ts uint64) {
		var mk MACKey
		copy(mk[:], key)
		rr := &types.ReadReply{ReqID: reqID, Key: k, ShardID: shard, ReplicaID: replica}
		meta := &types.TxMeta{Timestamp: types.Timestamp{Time: ts, ClientID: reqID}}
		if which&1 != 0 {
			rr.Committed = &types.CommittedRead{Value: value, WriterID: types.TxID{byte(ts)}, Timestamp: meta.Timestamp}
		}
		if which&2 != 0 {
			rr.Prepared = &types.PreparedRead{Value: value, WriterID: types.TxID{byte(reqID)}, WriterMeta: meta}
		}
		m := hmac.New(sha256.New, mk[:])
		m.Write(rr.AppendPayload(nil))
		want := m.Sum(nil)
		got := SumReadMAC(&mk, rr)
		if !hmac.Equal(got[:], want) {
			t.Fatalf("SumReadMAC %x, crypto/hmac %x", got, want)
		}
	})
}
