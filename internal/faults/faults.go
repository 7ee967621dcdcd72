// Package faults supplies Byzantine behavior strategies for replicas and
// clients, used by the failure experiments (paper §6.4), the adversarial
// test suite and the production-scenario harness (internal/scenario),
// plus composable chaos injectors (seeded link drops, partitions, slow
// disks, replica-side equivocation) for the whole-cluster fuzz batteries
// and scenario storms.
//
// Ownership: strategies are installed at cluster construction and invoked
// from replica pool workers and transport dispatchers concurrently; every
// strategy here is either stateless or guards its state with its own
// mutex. Random decisions are derived from the seed and the *identity* of
// the decision point (link, transaction, key) rather than from a shared
// call sequence, so a fault schedule is deterministic for a given seed no
// matter how concurrent goroutines interleave — a failing run reproduces
// from its printed seed (regression-tested under -race in
// TestFaultScheduleDeterministic).
package faults

import (
	"encoding/binary"
	"hash/fnv"
	"sync"

	"repro/internal/replica"
	"repro/internal/transport"
	"repro/internal/types"
)

// mix hashes the seed together with identity material into a stable
// 64-bit value — the root of every derived decision stream. The fnv sum
// is run through a splitmix64 finalizer: fnv-1a alone barely moves the
// high bits when inputs differ only in trailing bytes (sequential
// counters), and unit() reads the top 53 bits.
func mix(seed int64, parts ...[]byte) uint64 {
	h := fnv.New64a()
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], uint64(seed))
	h.Write(s[:])
	for _, p := range parts {
		h.Write(p)
	}
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a hash to [0, 1) with 53 bits of precision.
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// addrBytes serializes an address for hashing.
func addrBytes(a transport.Addr) []byte {
	var b [9]byte
	b[0] = byte(a.Role)
	binary.BigEndian.PutUint32(b[1:], uint32(a.Shard))
	binary.BigEndian.PutUint32(b[5:], uint32(a.Index))
	return b[:]
}

// VoteAbortReplica always votes abort, the cheapest way for a Byzantine
// replica to disable Basil's fast path (paper §6.3: "Byzantine replicas,
// by refusing to vote or voting abort, can effectively disable the fast
// path option").
type VoteAbortReplica struct{}

// MutateVote implements replica.ByzantineStrategy.
func (VoteAbortReplica) MutateVote(types.TxID, types.Vote) types.Vote { return types.VoteAbort }

// DropRead implements replica.ByzantineStrategy.
func (VoteAbortReplica) DropRead(string) bool { return false }

// UnresponsiveReplica stays silent on the selected paths, forcing clients
// onto larger read quorums and the slow path (paper §6.4 intro).
type UnresponsiveReplica struct {
	Reads bool // drop read requests
	Votes bool // suppress ST1 votes
}

// MutateVote implements replica.ByzantineStrategy.
func (u UnresponsiveReplica) MutateVote(_ types.TxID, v types.Vote) types.Vote {
	if u.Votes {
		return types.VoteNone
	}
	return v
}

// DropRead implements replica.ByzantineStrategy.
func (u UnresponsiveReplica) DropRead(string) bool { return u.Reads }

// FlakyReplica misbehaves probabilistically, for randomized stress tests.
// Vote decisions are a pure function of (seed, transaction id): a given
// transaction is mishandled the same way on every delivery and on every
// same-seed run, independent of handler interleaving. Read drops draw
// from a per-key decision sequence (seed, key, nth read of that key),
// guarded by the strategy's own mutex.
type FlakyReplica struct {
	seed      int64
	PAbort    float64
	PSilent   float64
	PDropRead float64

	// mu guards readSeq: read-drop decisions consume a per-key sequence
	// number, and DropRead is called from concurrent read handlers.
	mu      sync.Mutex
	readSeq map[string]uint64
}

// NewFlakyReplica builds a seeded flaky replica.
func NewFlakyReplica(seed int64, pAbort, pSilent, pDropRead float64) *FlakyReplica {
	return &FlakyReplica{
		seed: seed, PAbort: pAbort, PSilent: pSilent, PDropRead: pDropRead,
		readSeq: make(map[string]uint64),
	}
}

// MutateVote implements replica.ByzantineStrategy.
func (f *FlakyReplica) MutateVote(id types.TxID, v types.Vote) types.Vote {
	p := unit(mix(f.seed, id[:]))
	switch {
	case p < f.PSilent:
		return types.VoteNone
	case p < f.PSilent+f.PAbort:
		return types.VoteAbort
	default:
		return v
	}
}

// DropRead implements replica.ByzantineStrategy.
func (f *FlakyReplica) DropRead(key string) bool {
	f.mu.Lock()
	n := f.readSeq[key]
	f.readSeq[key] = n + 1
	f.mu.Unlock()
	var seq [8]byte
	binary.BigEndian.PutUint64(seq[:], n)
	return unit(mix(f.seed, []byte(key), seq[:])) < f.PDropRead
}

// Compile-time interface checks.
var (
	_ replica.ByzantineStrategy = VoteAbortReplica{}
	_ replica.ByzantineStrategy = UnresponsiveReplica{}
	_ replica.ByzantineStrategy = (*FlakyReplica)(nil)
)
