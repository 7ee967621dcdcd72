package main

import (
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/types"
)

// microRounds and microIters size the timed calls into single layers:
// the median of microRounds rounds of microIters calls each.
const (
	microRounds = 7
	microIters  = 200
)

// perCallUs returns the median over rounds of the mean time of one call
// to fn, in µs.
func perCallUs(fn func() error) (float64, error) {
	rounds := make([]float64, microRounds)
	for r := range rounds {
		t0 := time.Now()
		for i := 0; i < microIters; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		rounds[r] = float64(time.Since(t0)) / 1e3 / microIters
	}
	return median(rounds), nil
}

// cryptoUs times Registry.Signer(i).Sign and Registry.Verify on the
// canonical bytes of a committed transaction's metadata.
func cryptoUs(meta *types.TxMeta, seed int64) (signUs, verifyUs float64, err error) {
	reg := cryptoutil.NewRegistry(cryptoutil.SchemeEd25519, 1, seed)
	payload := meta.AppendCanonical(nil)
	signer := reg.Signer(0)
	sig := signer.Sign(payload)
	if signUs, err = perCallUs(func() error { signer.Sign(payload); return nil }); err != nil {
		return 0, 0, err
	}
	verifyUs, err = perCallUs(func() error {
		if !reg.Verify(0, payload, sig) {
			return fmt.Errorf("cryptoutil: signature over a transaction payload did not verify")
		}
		return nil
	})
	return signUs, verifyUs, err
}

// txnMessages builds the stage-1 request and the writeback (with a
// fast-path commit certificate of n signed votes) one transaction sends.
func txnMessages(meta *types.TxMeta, n int, seed int64) (*types.ST1Request, *types.WritebackRequest) {
	reg := cryptoutil.NewRegistry(cryptoutil.SchemeEd25519, n, seed)
	id := meta.ID()
	votes := make([]types.ST1Reply, n)
	for i := range votes {
		v := types.ST1Reply{TxID: id, ReplicaID: int32(i), Vote: types.VoteCommit}
		v.Sig = types.Signature{SignerID: int32(i), Direct: reg.Signer(int32(i)).Sign(v.Payload())}
		votes[i] = v
	}
	cert := &types.DecisionCert{TxID: id, Decision: types.DecisionCommit, Shards: []types.ShardCert{
		{Kind: types.CertST1Fast, Vote: types.VoteCommit, ST1Rs: votes},
	}}
	return &types.ST1Request{ReqID: 1, ClientID: 1, Meta: meta},
		&types.WritebackRequest{ClientID: 1, TxID: id, Decision: types.DecisionCommit, Cert: cert, Meta: meta}
}

// codecUsPerTxn times types.EncodeMessage plus DecodeMessage of one
// transaction's stage-1 request and writeback, each counted once per
// replica it is sent to.
func codecUsPerTxn(meta *types.TxMeta, replicas int, seed int64) (float64, error) {
	st1, wb := txnMessages(meta, replicas, seed)
	us, err := perCallUs(func() error {
		for _, m := range []any{st1, wb} {
			b, err := types.EncodeMessage(m)
			if err != nil {
				return err
			}
			if _, _, err := types.DecodeMessage(b); err != nil {
				return err
			}
		}
		return nil
	})
	return us * float64(replicas), err
}
