// Package types defines the wire-level vocabulary of the Basil protocol:
// timestamps, transaction metadata, protocol messages, votes, vote tallies
// and decision certificates, together with a deterministic binary encoding
// used for hashing and signing.
//
// Everything here is a plain value type. Messages are immutable once sent;
// the in-process transport passes pointers, so receivers must not mutate
// payloads they did not create.
//
// Decoding never aliases its input: DecodeMessage, DecodeTxMeta and
// DecodeDecisionCert copy every byte string, string, id, hash and
// signature out of the buffer they parse. A transport may therefore
// decode each frame from one reused read buffer (TestWireDecodeOwnsBytes
// and FuzzDecodeMessage hold the decoder to this).
package types

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// Timestamp is the MVTSO transaction timestamp (Time, ClientID). Clients
// choose their own timestamps (paper §4.1); ClientID breaks ties so the
// order is total across clients.
type Timestamp struct {
	Time     uint64
	ClientID uint64
}

// Less reports whether t precedes o in the total serialization order.
func (t Timestamp) Less(o Timestamp) bool {
	if t.Time != o.Time {
		return t.Time < o.Time
	}
	return t.ClientID < o.ClientID
}

// LessEq reports t ≤ o in the total serialization order.
func (t Timestamp) LessEq(o Timestamp) bool { return !o.Less(t) }

// IsZero reports whether t is the zero timestamp (the initial version of
// every key is written at the zero timestamp by the load phase).
func (t Timestamp) IsZero() bool { return t.Time == 0 && t.ClientID == 0 }

// Compare returns -1, 0, or +1 ordering t against o.
func (t Timestamp) Compare(o Timestamp) int {
	switch {
	case t.Less(o):
		return -1
	case o.Less(t):
		return 1
	default:
		return 0
	}
}

func (t Timestamp) String() string {
	return fmt.Sprintf("%d.%d", t.Time, t.ClientID)
}

// TxID identifies a transaction: the SHA-256 digest of its canonical
// metadata encoding. Using a content hash prevents Byzantine clients from
// equivocating a transaction's contents (paper §4.2, ST1).
type TxID [32]byte

func (id TxID) String() string { return hex.EncodeToString(id[:8]) }

// IsZero reports whether the id is unset.
func (id TxID) IsZero() bool { return id == TxID{} }

// ShardIndex returns the deterministic logging-shard choice among the
// transaction's participant shards (paper §4.2 stage 2: Slog is "chosen
// deterministically depending on T's id").
func (id TxID) ShardIndex(nParticipants int) int {
	if nParticipants <= 0 {
		return 0
	}
	// Fold the first 8 bytes; uniform enough for shard selection.
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(id[i])
	}
	return int(v % uint64(nParticipants))
}

// Vote is a replica's concurrency-control verdict for a transaction.
type Vote uint8

const (
	// VoteNone is the absence of a vote.
	VoteNone Vote = iota
	// VoteCommit means the MVTSO check accepted the transaction.
	VoteCommit
	// VoteAbort means the MVTSO check found a serializability conflict.
	VoteAbort
)

func (v Vote) String() string {
	switch v {
	case VoteCommit:
		return "commit"
	case VoteAbort:
		return "abort"
	default:
		return "none"
	}
}

// Decision is the final two-phase-commit outcome of a transaction.
type Decision uint8

const (
	// DecisionNone is the absence of a decision.
	DecisionNone Decision = iota
	// DecisionCommit commits the transaction.
	DecisionCommit
	// DecisionAbort aborts the transaction.
	DecisionAbort
)

func (d Decision) String() string {
	switch d {
	case DecisionCommit:
		return "commit"
	case DecisionAbort:
		return "abort"
	default:
		return "none"
	}
}

// ReadEntry records one read in a transaction's read set: the key and the
// version (writer timestamp) the client observed.
type ReadEntry struct {
	Key     string
	Version Timestamp
}

// WriteEntry records one buffered write.
type WriteEntry struct {
	Key   string
	Value []byte
}

// Dependency is a write-read dependency on a prepared-but-uncommitted
// transaction: the reader may not commit until the writer does.
type Dependency struct {
	TxID    TxID
	Version Timestamp // the prepared version that was read
}

// TxMeta is the full transaction metadata shipped in ST1 messages. Its
// canonical encoding hashes to the transaction id, so Byzantine clients
// cannot present different contents to different replicas.
type TxMeta struct {
	Timestamp Timestamp
	ReadSet   []ReadEntry
	WriteSet  []WriteEntry
	Deps      []Dependency
	// Shards lists the participant shard ids, sorted ascending. It is part
	// of the signed metadata so clients cannot spoof the participant list.
	Shards []int32
}

// ID computes the transaction id: SHA-256 over the canonical encoding.
// The id is recomputed, not cached: in-process the same TxMeta pointer
// reaches every replica, and its creator may still change it after
// hashing. The encoding goes through a pooled scratch buffer that never
// leaves this call, so hashing allocates nothing.
func (m *TxMeta) ID() TxID {
	bp := idBufPool.Get().(*[]byte)
	b := m.AppendCanonical((*bp)[:0])
	id := TxID(sha256.Sum256(b))
	if cap(b) <= maxPooledIDBuf {
		*bp = b
		idBufPool.Put(bp)
	}
	return id
}

// maxPooledIDBuf is the largest encode buffer returned to idBufPool; a
// bigger one (an unusually large transaction) is left to the collector
// rather than pinned.
const maxPooledIDBuf = 4 << 10

// idBufPool holds ID's encode buffers.
var idBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// ReadsKey reports whether the read set contains key, returning the version.
func (m *TxMeta) ReadsKey(key string) (Timestamp, bool) {
	for _, r := range m.ReadSet {
		if r.Key == key {
			return r.Version, true
		}
	}
	return Timestamp{}, false
}

// WritesKey reports whether the write set contains key.
func (m *TxMeta) WritesKey(key string) bool {
	for _, w := range m.WriteSet {
		if w.Key == key {
			return true
		}
	}
	return false
}

// HasShard reports whether shard s participates in the transaction.
func (m *TxMeta) HasShard(s int32) bool {
	for _, sh := range m.Shards {
		if sh == s {
			return true
		}
	}
	return false
}

// LogShard returns the deterministic logging shard for the transaction
// (one of its participants).
func (m *TxMeta) LogShard() int32 {
	if len(m.Shards) == 0 {
		return 0
	}
	return m.Shards[m.ID().ShardIndex(len(m.Shards))]
}
