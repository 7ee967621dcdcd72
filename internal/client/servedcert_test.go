package client

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
)

// certReplicas registers six fake replicas of shard 0 that answer with
// the transaction's certificate for dec, as replicas do once another
// client has finished and collected the transaction. With voters == 0
// every stage-1 request gets the certificate; otherwise the first voters
// replicas vote commit, the rest stay silent, and every ST2 gets the
// certificate. Signatures use SchemeNone, so the client checks only the
// certificate's structure. Returns the writeback count.
func certReplicas(net *transport.Local, dec types.Decision, voters int32) *atomic.Int32 {
	var writebacks atomic.Int32
	for i := int32(0); i < 6; i++ {
		self := transport.ReplicaAddr(0, i)
		net.Register(self, transport.HandlerFunc(func(from transport.Addr, msg any) {
			var reqID uint64
			var meta *types.TxMeta
			switch m := msg.(type) {
			case *types.ST1Request:
				if voters > 0 {
					if i < voters {
						net.Send(self, from, &types.ST1Reply{ReqID: m.ReqID, TxID: m.Meta.ID(), ShardID: 0,
							ReplicaID: i, Vote: types.VoteCommit, Sig: types.Signature{SignerID: i}})
					}
					return
				}
				reqID, meta = m.ReqID, m.Meta
			case *types.ST2Request:
				reqID, meta = m.ReqID, m.Meta
			case *types.WritebackRequest:
				writebacks.Add(1)
				return
			default:
				return
			}
			id := meta.ID()
			vote := types.VoteCommit
			if dec == types.DecisionAbort {
				vote = types.VoteAbort
			}
			sc := types.ShardCert{ShardID: 0, Kind: types.CertST1Fast, Vote: vote}
			for j := int32(0); j < 6; j++ {
				sc.ST1Rs = append(sc.ST1Rs, types.ST1Reply{TxID: id, ShardID: 0, ReplicaID: j,
					Vote: vote, Sig: types.Signature{SignerID: j}})
			}
			net.Send(self, from, &types.ST1Reply{ReqID: reqID, TxID: id, ShardID: 0, ReplicaID: i,
				RPKind: types.RPCert, Ev: &types.ST1Evidence{Cert: &types.DecisionCert{TxID: id, Decision: dec,
					Shards: []types.ShardCert{sc}}, CertMeta: meta}})
		}))
	}
	return &writebacks
}

// TestCommitAcceptsServedCertificate: a transaction that another client
// already finished (as a dependency) is answered with its certificate
// instead of votes or ST2 acknowledgements. The owner must take that
// outcome, not wait out its retry budget.
func TestCommitAcceptsServedCertificate(t *testing.T) {
	cases := []struct {
		name   string
		dec    types.Decision
		voters int32 // stage-1 voters; 0: every replica serves the cert
		want   error
	}{
		{"stage1-commit", types.DecisionCommit, 0, nil},
		{"stage1-abort", types.DecisionAbort, 0, ErrAborted},
		{"stage2-commit", types.DecisionCommit, 4, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewLocal()
			defer net.Close()
			writebacks := certReplicas(net, tc.dec, tc.voters)
			c := New(Config{
				ID: 1, F: 1, NumShards: 1, ShardOf: func(string) int32 { return 0 },
				Registry:     cryptoutil.NewRegistry(cryptoutil.SchemeNone, 6, 1),
				SignerOf:     quorum.SignerOf(func(_, i int32) int32 { return i }),
				Net:          net,
				PhaseTimeout: time.Second, RetryTimeout: 2 * time.Second,
			})
			start := time.Now()
			txn := c.Begin()
			txn.Write("x", []byte("v"))
			if err := txn.Commit(); err != tc.want {
				t.Fatalf("Commit = %v, want %v", err, tc.want)
			}
			if d := time.Since(start); d >= time.Second {
				t.Fatalf("Commit took %v: the served certificate waited out a phase timeout", d)
			}
			deadline := time.Now().Add(time.Second)
			for writebacks.Load() < 6 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := writebacks.Load(); n != 6 {
				t.Fatalf("%d writebacks, want the certificate written back to all 6 replicas", n)
			}
		})
	}
}
