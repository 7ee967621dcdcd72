package types

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
)

// TestWireReadPayloadPinned pins the MACed bytes of a read reply to those
// of the encoding in which the committed branch carried its writer's
// metadata: the version now comes from CommittedRead.Timestamp instead of
// WriterMeta.Timestamp, and the bytes must not move.
func TestWireReadPayloadPinned(t *testing.T) {
	rep := &ReadReply{ReqID: 5, Key: "k", ShardID: 1, ReplicaID: 2,
		Committed: &CommittedRead{Value: []byte{0x76}, WriterID: TxID{0xD1}, Timestamp: Timestamp{Time: 8, ClientID: 9}},
		Prepared:  &PreparedRead{Value: []byte{0x77}, WriterID: TxID{0xD2}, WriterMeta: &TxMeta{Timestamp: Timestamp{Time: 6, ClientID: 7}}}}
	const want = "626173696c2f726561642f" + "0000000000000005" + "000000016b" + "00000001" + "00000002" +
		"01" + "0000000000000008" + "0000000000000009" + "d1" + "00000000000000000000000000000000000000000000000000000000000000" + "0000000176" +
		"01" + "0000000000000006" + "0000000000000007" + "d2" + "00000000000000000000000000000000000000000000000000000000000000" + "0000000177"
	if got := hex.EncodeToString(rep.AppendPayload(nil)); got != want {
		t.Fatalf("read payload\n%s\nwant\n%s", got, want)
	}
}

// ycsbMeta is a YCSB-T writer (2 reads, 2 read-modify-writes of 64-byte
// values) on one shard.
func ycsbMeta(w *wireRand) *TxMeta {
	m := &TxMeta{Timestamp: w.ts(), Shards: []int32{0}}
	for i := 0; i < 4; i++ {
		m.ReadSet = append(m.ReadSet, ReadEntry{Key: fmt.Sprintf("user%012d", i), Version: w.ts()})
	}
	for i := 2; i < 4; i++ {
		m.WriteSet = append(m.WriteSet, WriteEntry{Key: fmt.Sprintf("user%012d", i), Value: make([]byte, 64)})
	}
	return m
}

// TestWireCommittedReadReplySize pins the size of a committed read reply
// of a version with a fast-path (6-vote) certificate: under 200 bytes,
// since the metadata and certificate travel only in a CertReply, which a
// client asks for only for an uncorroborated version.
func TestWireCommittedReadReplySize(t *testing.T) {
	w := newWireRand(9)
	meta := ycsbMeta(w)
	wb := fastCommitWriteback(w)
	rep := &ReadReply{ReqID: w.r.Uint64(), Key: meta.WriteSet[0].Key, ShardID: 0, ReplicaID: 3,
		Committed: &CommittedRead{Value: meta.WriteSet[0].Value, WriterID: wb.TxID, Timestamp: meta.Timestamp},
		MAC:       w.hash()}
	enc, err := EncodeMessage(rep)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := EncodeMessage(&CertReply{ReqID: rep.ReqID, ReplicaID: 3, Meta: meta, Cert: wb.Cert})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("committed read reply %d B; its certificate reply %d B", len(enc), len(cert))
	if len(enc) >= 200 {
		t.Fatalf("committed read reply is %d B, want under 200", len(enc))
	}
}

// TestWireDecodeOwnsBytes holds DecodeMessage to the package's no-alias
// rule: a message decoded from a buffer that is then overwritten equals a
// fresh decode of the original bytes, for every message type, populated
// and sparse. A decoder that returned a slice of its input (a byte
// string, an id, a signature) would see the overwrite.
func TestWireDecodeOwnsBytes(t *testing.T) {
	msgs := append(wireMessages(17), sparseMessages()...)
	for _, msg := range msgs {
		enc, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		buf := bytes.Clone(enc)
		got, _, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		for i := range buf {
			buf[i] = 0xA5
		}
		want, _, _ := DecodeMessage(enc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T: decoded message changed when its input buffer was overwritten", msg)
		}
	}
}

// FuzzDecodeMessage feeds arbitrary frames to DecodeMessage. Decoding
// must never panic; an accepted frame must re-encode to bytes that decode
// to an equal message; and overwriting the frame after decoding must not
// change the decoded message. `go test` runs the seed corpus (one
// encoding of every message tag, populated and sparse); run
// `go test -run '^$' -fuzz FuzzDecodeMessage ./internal/types/` to
// explore.
func FuzzDecodeMessage(f *testing.F) {
	for _, msg := range append(wireMessages(23), sparseMessages()...) {
		enc, err := EncodeMessage(msg)
		if err != nil {
			f.Fatalf("%T: encode: %v", msg, err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		in := bytes.Clone(frame)
		msg, _, err := DecodeMessage(in)
		if err != nil {
			return
		}
		re, err := EncodeMessage(msg)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", msg, err)
		}
		for i := range in {
			in[i] = ^in[i]
		}
		if again, _ := EncodeMessage(msg); !bytes.Equal(again, re) {
			t.Fatalf("decoded %T changed when its input was overwritten", msg)
		}
		back, rest, err := DecodeMessage(re)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded %T does not decode: %v (%d bytes left)", msg, err, len(rest))
		}
		if !reflect.DeepEqual(back, msg) {
			t.Fatalf("re-encoded %T decodes to a different message\n got %+v\nwant %+v", msg, back, msg)
		}
	})
}
