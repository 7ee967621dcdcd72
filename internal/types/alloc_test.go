package types

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// TestTxMetaIDAllocs pins TxMeta.ID at zero allocations: every replica
// and the client hash each transaction several times, and the encoding
// goes through a pooled buffer.
func TestTxMetaIDAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	m := newWireRand(3).meta()
	if n := testing.AllocsPerRun(200, func() { _ = m.ID() }); n != 0 {
		t.Fatalf("TxMeta.ID allocates %.1f times per call, want 0", n)
	}
}

// TestTxMetaIDHashesCanonical checks ID against SHA-256 of a fresh
// canonical encoding, for a transaction whose encoding fits the pooled
// buffer and for one past the pool's size limit, and that a pooled
// buffer left over from a longer encoding does not leak into a shorter
// one.
func TestTxMetaIDHashesCanonical(t *testing.T) {
	small := newWireRand(4).meta()
	big := newWireRand(5).meta()
	big.WriteSet = append(big.WriteSet, WriteEntry{Key: "big", Value: bytes.Repeat([]byte{7}, 2*maxPooledIDBuf)})
	mid := newWireRand(6).meta()
	mid.WriteSet = append(mid.WriteSet, WriteEntry{Key: "mid", Value: bytes.Repeat([]byte{9}, maxPooledIDBuf/2)})
	for _, m := range []*TxMeta{small, big, mid, small, mid, small} {
		if got, want := m.ID(), TxID(sha256.Sum256(m.AppendCanonical(nil))); got != want {
			t.Fatalf("ID %x, want %x", got, want)
		}
	}
}

// TestEncodeMessageOwnsItsBytes: EncodeMessage returns an exact-size
// slice of its own, not the pooled scratch it encoded into. An encoding
// stays unchanged while later encodings reuse the scratch, and equals a
// fresh AppendMessage.
func TestEncodeMessageOwnsItsBytes(t *testing.T) {
	msgs := wireMessages(7)
	encs := make([][]byte, len(msgs))
	for i, m := range msgs {
		b, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != cap(b) {
			t.Fatalf("%T: encoding has len %d, cap %d", m, len(b), cap(b))
		}
		encs[i] = b
	}
	for round := 0; round < 3; round++ {
		for _, m := range msgs {
			if _, err := EncodeMessage(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, m := range msgs {
		want, _ := AppendMessage(nil, m)
		if !bytes.Equal(encs[i], want) {
			t.Fatalf("%T: encoding changed after the scratch was reused", m)
		}
	}
	if _, err := EncodeMessage("not a message"); err == nil {
		t.Fatal("non-message encoded")
	}
}
