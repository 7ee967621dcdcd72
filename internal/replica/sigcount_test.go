package replica

import (
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
