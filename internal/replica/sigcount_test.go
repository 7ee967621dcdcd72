package replica

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/transport"
	"repro/internal/types"
)

// fastCommitWriteback builds client 9's writeback for a one-write
// transaction on key at timestamp ts, carrying a fast-path commit
// certificate signed by all 5f+1 replicas of shard 0.
func fastCommitWriteback(r *Replica, key string, ts uint64) *types.WritebackRequest {
	meta := st1For(key, ts).Meta
	id := meta.ID()
	sc := types.ShardCert{ShardID: 0, Kind: types.CertST1Fast, Vote: types.VoteCommit}
	for i := int32(0); i < int32(r.qc.N()); i++ {
		v := types.ST1Reply{TxID: id, ShardID: 0, ReplicaID: i, Vote: types.VoteCommit}
		v.Sig = types.Signature{SignerID: i, Direct: r.cfg.Registry.Signer(i).Sign(v.Payload())}
		sc.ST1Rs = append(sc.ST1Rs, v)
	}
	return &types.WritebackRequest{
		ClientID: 9, TxID: id, Decision: types.DecisionCommit, Meta: meta,
		Cert: &types.DecisionCert{TxID: id, Decision: types.DecisionCommit, Shards: []types.ShardCert{sc}},
	}
}

// TestSigsVerifiedCountsChecks pins what Stats.SigsVerified counts: the
// ed25519 checks the replica's verifier actually runs. A writeback whose
// fast C-CERT carries 5f+1 = 6 signed votes costs exactly 6; an identical
// second delivery is answered before any signature is checked and costs 0.
func TestSigsVerifiedCountsChecks(t *testing.T) {
	r, net := newTestReplica(t, 1)
	defer net.Close()
	defer r.Close()

	wb := fastCommitWriteback(r, "k", 10)
	client := transport.ClientAddr(9)

	r.onWriteback(client, wb)
	if got := r.Stats.Writebacks.Load(); got != 1 {
		t.Fatalf("writeback not applied: Writebacks = %d", got)
	}
	if got := r.Stats.SigsVerified.Load(); got != 6 {
		t.Fatalf("first writeback: SigsVerified = %d, want 6", got)
	}
	r.onWriteback(client, wb)
	if got := r.Stats.SigsVerified.Load(); got != 6 {
		t.Fatalf("duplicate writeback: SigsVerified = %d, want still 6", got)
	}
}

// votedReplica returns a test replica that has answered client 9's ST1
// for a one-write transaction on key at ts, so it holds the signature of
// its own logged vote.
func votedReplica(t *testing.T, key string, ts uint64) (*Replica, *transport.Local) {
	t.Helper()
	r, net := newTestReplica(t, 1)
	r.onST1(transport.ClientAddr(9), st1For(key, ts))
	if tx := r.peekTx(st1For(key, ts).Meta.ID()); tx == nil || tx.ownSigState.Load() != ownSigSet {
		t.Fatal("replica kept no signature of its vote")
	}
	return r, net
}

// TestOwnVoteSkipsCheck: a replica that voted skips its own entry of the
// writeback's certificate, which carries the bytes it signed: 5 checks,
// not 6.
func TestOwnVoteSkipsCheck(t *testing.T) {
	r, net := votedReplica(t, "k", 10)
	defer net.Close()
	defer r.Close()

	r.onWriteback(transport.ClientAddr(9), fastCommitWriteback(r, "k", 10))
	if got := r.Stats.Writebacks.Load(); got != 1 {
		t.Fatalf("writeback not applied: Writebacks = %d", got)
	}
	if got := r.Stats.SigsVerified.Load(); got != 5 {
		t.Fatalf("SigsVerified = %d, want 5 (own vote skipped)", got)
	}
}

// TestOwnVoteOtherBytesChecked: the replica's own entry with the logged
// vote but other signature bytes is checked in full and refused, and so
// is one that keeps the signed bytes in Direct but carries a batch proof,
// which the full check verifies instead.
func TestOwnVoteOtherBytesChecked(t *testing.T) {
	r, net := votedReplica(t, "k", 10)
	defer net.Close()
	defer r.Close()

	wb := fastCommitWriteback(r, "k", 10)
	wb.Cert.Shards[0].ST1Rs[0].Sig.Direct[5] ^= 1
	r.onWriteback(transport.ClientAddr(9), wb)
	if got := r.Stats.Writebacks.Load(); got != 0 {
		t.Fatal("certificate with a corrupted own vote accepted")
	}
	if r.Stats.SigsVerified.Load() == 0 {
		t.Fatal("no signature checked")
	}

	wb = fastCommitWriteback(r, "k", 10)
	wb.Cert.Shards[0].ST1Rs[0].Sig.Batch = &types.BatchProof{Index: 1}
	r.onWriteback(transport.ClientAddr(9), wb)
	if got := r.Stats.Writebacks.Load(); got != 0 {
		t.Fatal("own vote with a bogus batch proof accepted")
	}
}

// TestOwnVoteOtherVoteChecked: an own entry whose vote differs from the
// logged one is checked in full. The replica voted commit; a fast abort
// certificate carrying its commit signature's bytes on an abort vote is
// refused, and one carrying its valid abort signature costs all 3f+1 = 4
// checks.
func TestOwnVoteOtherVoteChecked(t *testing.T) {
	r, net := votedReplica(t, "k", 10)
	defer net.Close()
	defer r.Close()

	abortWriteback := func() *types.WritebackRequest {
		wb := fastCommitWriteback(r, "k", 10)
		sc := &wb.Cert.Shards[0]
		sc.Vote = types.VoteAbort
		sc.ST1Rs = sc.ST1Rs[:r.qc.FastAbort()]
		for i := range sc.ST1Rs {
			v := &sc.ST1Rs[i]
			v.Vote = types.VoteAbort
			v.Sig.Direct = r.cfg.Registry.Signer(v.ReplicaID).Sign(v.Payload())
		}
		wb.Decision, wb.Cert.Decision = types.DecisionAbort, types.DecisionAbort
		return wb
	}

	forged := abortWriteback()
	forged.Cert.Shards[0].ST1Rs[0].Sig.Direct = r.peekTx(forged.TxID).ownSig
	r.onWriteback(transport.ClientAddr(9), forged)
	if got := r.Stats.Writebacks.Load(); got != 0 {
		t.Fatal("abort vote carrying the commit vote's signature accepted")
	}

	checked := r.Stats.SigsVerified.Load()
	r.onWriteback(transport.ClientAddr(9), abortWriteback())
	if got := r.Stats.Writebacks.Load(); got != 1 {
		t.Fatalf("abort writeback not applied: Writebacks = %d", got)
	}
	if got := r.Stats.SigsVerified.Load() - checked; got != 4 {
		t.Fatalf("SigsVerified rose by %d, want 4 (own entry's vote differs from the logged one)", got)
	}
}

// TestOwnVoteRacingWritebackCollected races duplicate ST1s, whose signing
// keeps the own-vote signature, against the writeback whose certificate
// check reads it and whose finalize collects the state (run ten times
// under -race by make test-race). Every writeback applies, and each
// costs 5 checks or, when it wins the race against the vote, 6.
func TestOwnVoteRacingWritebackCollected(t *testing.T) {
	r, net := newTestReplica(t, 1)
	defer net.Close()
	defer r.Close()
	client := transport.ClientAddr(9)
	const rounds = 50
	for i := 0; i < rounds; i++ {
		key, ts := fmt.Sprintf("own%d", i), uint64(10+i)
		wb := fastCommitWriteback(r, key, ts)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				r.onST1(client, st1For(key, ts))
			}
		}()
		go func() {
			defer wg.Done()
			r.onWriteback(client, wb)
		}()
		wg.Wait()
	}
	if got := r.Stats.Writebacks.Load(); got != rounds {
		t.Fatalf("Writebacks = %d, want %d", got, rounds)
	}
	if got := r.Stats.SigsVerified.Load(); got < 5*rounds || got > 6*rounds {
		t.Fatalf("SigsVerified = %d, want between %d and %d", got, 5*rounds, 6*rounds)
	}
}
