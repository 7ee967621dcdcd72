package client

import (
	"time"

	"repro/internal/types"
)

// FinishTransaction drives a stalled transaction (typically somebody
// else's, acquired as a dependency) to a decision (paper §5).
//
// Common case: a Recovery Prepare (RP) resend of ST1 lets the client
// fast-forward from whatever artifacts replicas hold — stored votes, a
// logged ST2 decision, or a full certificate — and finish the transaction
// on the normal path. Divergent case: replicas of the logging shard hold
// conflicting logged decisions (an equivocating client, or concurrent
// recoverers); the client then drives fallback leader election rounds
// until n-f replicas converge on one decision.
func (c *Client) FinishTransaction(meta *types.TxMeta) (types.Decision, *types.DecisionCert, error) {
	id := meta.ID()
	deadline := time.Now().Add(c.cfg.RetryTimeout)

	// Recovery is a tail event by definition: force-capture the invoking
	// transaction's trace before the RP broadcast so the recovery requests
	// already carry the upgraded context.
	c.forceTrace(forcedRecovery, "recovery")
	if rcStart := c.tracer.Start(c.curTC); rcStart != 0 {
		defer func() { c.tracer.End(c.curTC, c.traceNode, "client.recovery", c.curRoot, rcStart) }()
	}

	// --- Common case: RP broadcast. ---
	reqID, ch := c.newRequest(c.qc.N() * (len(meta.Shards) + 1) * 2)
	rp := &types.ST1Request{ReqID: reqID, ClientID: uint64(c.cfg.ID), Meta: meta, Recovery: true, TC: c.curTC}
	for _, s := range meta.Shards {
		c.broadcastShard(s, rp)
	}

	tallies := newTallies(meta.Shards)
	st2rs := make(map[int32]types.ST2Reply) // logging-shard replica -> latest signed view
	divergent := false

	rpResend := func() {
		for _, s := range meta.Shards {
			if !tallies[s].settled(c.qc) {
				c.broadcastShard(s, rp)
			}
		}
	}
	dec, cert, done := c.collectRecovery(id, meta, ch, tallies, st2rs, &divergent, rpResend)
	c.endRequest(reqID)
	if done {
		c.writeback(meta, dec, cert)
		return dec, cert, nil
	}

	// If stage-1 votes classified, try to finish on the normal path by
	// logging the decision ourselves.
	if !divergent {
		if res, err := c.decide(tallies); err == nil {
			if res.fast {
				cert := c.buildFastCert(id, meta, res)
				c.writeback(meta, res.decision, cert)
				return res.decision, cert, nil
			}
			cert, err := c.logDecision(meta, id, res, 0)
			if err == nil {
				c.writeback(meta, cert.Decision, cert)
				return cert.Decision, cert, nil
			}
			divergent = true // logging shard disagreed: fall through
		}
	}

	// --- Divergent case: fallback leader election rounds. ---
	var lastRes *prepareResult
	if res, err := c.decide(tallies); err == nil {
		lastRes = &res
	}
	for round := 0; round < c.qc.N()+2; round++ {
		if round > 0 || c.retryHint > 0 {
			// Pace the rounds: jittered backoff, floored at any RetryAfter
			// hint an overloaded logging replica handed us. Back-to-back
			// rounds against a saturated shard only feed the overload.
			time.Sleep(c.retryDelay(round, c.takeRetryAfter()))
		}
		if time.Now().After(deadline) {
			return types.DecisionNone, nil, ErrTimeout
		}
		c.Stats.FallbackRounds.Add(1)
		c.forceTrace(forcedFallback, "fallback")
		reqID, ch := c.newRequest(c.qc.N() * 4)
		inv := &types.InvokeFB{
			ReqID: reqID, ClientID: uint64(c.cfg.ID), TxID: id, Meta: meta, TC: c.curTC,
		}
		for _, r := range st2rs {
			inv.ST2Rs = append(inv.ST2Rs, r)
		}
		if lastRes != nil {
			inv.Decision = lastRes.decision
			for _, t := range lastRes.tallies {
				inv.Tallies = append(inv.Tallies, t.toVoteTally(id, c.qc))
			}
		}
		c.broadcastShard(meta.LogShard(), inv)

		dec, cert, done := c.collectFallback(id, meta, ch, st2rs,
			func() { c.broadcastShard(meta.LogShard(), inv) })
		c.endRequest(reqID)
		if done {
			c.writeback(meta, dec, cert)
			return dec, cert, nil
		}
	}
	return types.DecisionNone, nil, ErrTimeout
}

// collectRecovery gathers RP replies. It returns done=true with a decision
// and certificate when the transaction can be finished immediately (a
// certificate surfaced, or n-f matching logged decisions exist).
func (c *Client) collectRecovery(id types.TxID, meta *types.TxMeta, ch chan any,
	tallies map[int32]*shardTally, st2rs map[int32]types.ST2Reply, divergent *bool,
	resend func()) (types.Decision, *types.DecisionCert, bool) {

	retry := newOverloadRetry(c, resend)
	defer retry.stop()
	deadline := time.NewTimer(c.cfg.PhaseTimeout)
	defer deadline.Stop()
	matching := make(map[uint64]map[int32]types.ST2Reply) // viewDecision -> replica -> reply
	decisionsSeen := make(map[types.Decision]bool)

	tryST2Quorum := func() (types.Decision, *types.DecisionCert, bool) {
		for _, byReplica := range matching {
			var dec types.Decision
			replies := make([]types.ST2Reply, 0, len(byReplica))
			for _, r := range byReplica {
				dec = r.Decision
				replies = append(replies, r)
			}
			// Group by decision within the view.
			byDec := map[types.Decision][]types.ST2Reply{}
			for _, r := range replies {
				byDec[r.Decision] = append(byDec[r.Decision], r)
			}
			for d, rs := range byDec {
				if len(rs) >= c.qc.LogQuorum() {
					vote := types.VoteCommit
					if d == types.DecisionAbort {
						vote = types.VoteAbort
					}
					cert := &types.DecisionCert{
						TxID: id, Decision: d,
						Shards: []types.ShardCert{{
							ShardID: meta.LogShard(), Kind: types.CertST2Logged, Vote: vote, ST2Rs: rs,
						}},
					}
					return d, cert, true
				}
			}
			_ = dec
		}
		return types.DecisionNone, nil, false
	}

	for {
		select {
		case <-retry.C:
			retry.fire()
		case m := <-ch:
			switch r := m.(type) {
			case *types.Overloaded:
				retry.note(r)
				continue
			case *types.ST1Reply:
				switch r.RPKind {
				case types.RPCert:
					if cert := c.servedCert(id, r); cert != nil {
						return cert.Decision, cert, true
					}
				case types.RPDecision:
					// Logged decisions are meaningful only from the logging
					// shard; a signed ST2R from another shard's replica must
					// not enter the view/quorum bookkeeping (cross-shard
					// confusion, as on the read path).
					if st2r := r.Evidence().ST2R; st2r != nil && st2r.ShardID == meta.LogShard() &&
						c.qv.VerifyST2Reply(st2r, id) == nil {
						c.noteST2R(*st2r, st2rs, matching, decisionsSeen)
						if len(decisionsSeen) > 1 {
							*divergent = true
						}
						if d, cert, ok := tryST2Quorum(); ok {
							return d, cert, true
						}
					}
				default:
					c.acceptST1Reply(id, tallies, r)
				}
			case *types.ST2Reply:
				if r.ShardID == meta.LogShard() && c.qv.VerifyST2Reply(r, id) == nil {
					c.noteST2R(*r, st2rs, matching, decisionsSeen)
					if len(decisionsSeen) > 1 {
						*divergent = true
					}
					if d, cert, ok := tryST2Quorum(); ok {
						return d, cert, true
					}
				}
			}
			// Fast exit when votes alone already classify every shard.
			settled := true
			for _, t := range tallies {
				if !t.settled(c.qc) {
					settled = false
					break
				}
			}
			if settled && len(st2rs) == 0 {
				return types.DecisionNone, nil, false
			}
		case <-deadline.C:
			if len(st2rs) > 0 {
				*divergent = true
			}
			return types.DecisionNone, nil, false
		}
	}
}

// noteST2R records a signed logged decision for view evidence and quorum
// matching.
func (c *Client) noteST2R(r types.ST2Reply, st2rs map[int32]types.ST2Reply,
	matching map[uint64]map[int32]types.ST2Reply, decisionsSeen map[types.Decision]bool) {
	prev, ok := st2rs[r.ReplicaID]
	if !ok || prev.ViewCurrent < r.ViewCurrent {
		st2rs[r.ReplicaID] = r
	}
	byReplica := matching[r.ViewDecision]
	if byReplica == nil {
		byReplica = make(map[int32]types.ST2Reply)
		matching[r.ViewDecision] = byReplica
	}
	byReplica[r.ReplicaID] = r
	decisionsSeen[r.Decision] = true
}

// collectFallback waits for post-election ST2 replies and assembles a
// logging-shard certificate from n-f replies matching in decision and
// decision view.
func (c *Client) collectFallback(id types.TxID, meta *types.TxMeta, ch chan any,
	st2rs map[int32]types.ST2Reply, resend func()) (types.Decision, *types.DecisionCert, bool) {

	retry := newOverloadRetry(c, resend)
	defer retry.stop()
	deadline := time.NewTimer(c.cfg.PhaseTimeout)
	defer deadline.Stop()
	type key struct {
		dec  types.Decision
		view uint64
	}
	groups := make(map[key]map[int32]types.ST2Reply)
	for {
		select {
		case <-retry.C:
			retry.fire()
		case m := <-ch:
			if ov, isOv := m.(*types.Overloaded); isOv {
				retry.note(ov)
				continue
			}
			r, ok := m.(*types.ST2Reply)
			if !ok {
				if s1, isS1 := m.(*types.ST1Reply); isS1 {
					if cert := c.servedCert(id, s1); cert != nil {
						return cert.Decision, cert, true
					}
				}
				continue
			}
			if r.TxID != id || r.ShardID != meta.LogShard() || c.qv.VerifyST2Reply(r, id) != nil {
				continue
			}
			if prev, ok := st2rs[r.ReplicaID]; !ok || prev.ViewCurrent < r.ViewCurrent {
				st2rs[r.ReplicaID] = *r
			}
			k := key{r.Decision, r.ViewDecision}
			g := groups[k]
			if g == nil {
				g = make(map[int32]types.ST2Reply)
				groups[k] = g
			}
			g[r.ReplicaID] = *r
			if len(g) >= c.qc.LogQuorum() {
				replies := make([]types.ST2Reply, 0, len(g))
				for _, rr := range g {
					replies = append(replies, rr)
				}
				vote := types.VoteCommit
				if k.dec == types.DecisionAbort {
					vote = types.VoteAbort
				}
				cert := &types.DecisionCert{
					TxID: id, Decision: k.dec,
					Shards: []types.ShardCert{{
						ShardID: meta.LogShard(), Kind: types.CertST2Logged, Vote: vote, ST2Rs: replies,
					}},
				}
				return k.dec, cert, true
			}
		case <-deadline.C:
			return types.DecisionNone, nil, false
		}
	}
}
