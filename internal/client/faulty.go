package client

import (
	"time"

	"repro/internal/transport"
	"repro/internal/types"
)

// Byzantine client behaviors for the fault-injection experiments (paper
// §6.4). These methods exist solely for the benchmark harness: they let a
// client deviate from the protocol in exactly the ways the paper
// evaluates. A correct application never calls them.

// FaultMode selects a misbehavior (paper Fig. 7).
type FaultMode uint8

// Fault modes.
const (
	// FaultNone behaves correctly.
	FaultNone FaultMode = iota
	// FaultStallEarly sends ST1 and then abandons the transaction.
	FaultStallEarly
	// FaultStallLate completes the Prepare phase (including ST2 when
	// needed) but never broadcasts the writeback certificates.
	FaultStallLate
	// FaultEquivReal equivocates conflicting ST2 decisions only when the
	// received votes genuinely allow both a CommitQuorum and an
	// AbortQuorum, then stalls; otherwise it behaves like stall-late.
	FaultEquivReal
	// FaultEquivForced always sends conflicting ST2 decisions (requires
	// replicas running with AllowUnvalidatedST2, modeling the paper's
	// artificial worst case), then stalls.
	FaultEquivForced
)

// CommitFaulty executes the transaction's commit protocol under the given
// fault mode. It returns true if the misbehavior was exercised (for
// equiv-real: whether equivocation was possible).
func (c *Client) CommitFaulty(t *Txn, mode FaultMode) bool {
	if t.finished {
		return false
	}
	t.finished = true
	meta := t.buildMeta()
	if len(meta.Shards) == 0 {
		return false
	}
	id := meta.ID()

	reqID, ch := c.newRequest(c.qc.N() * len(meta.Shards) * 2)
	defer c.endRequest(reqID)
	st1 := &types.ST1Request{ReqID: reqID, ClientID: uint64(c.cfg.ID), Meta: meta}
	for _, s := range meta.Shards {
		c.broadcastShard(s, st1)
	}
	if mode == FaultStallEarly {
		return true // never even look at the votes
	}

	// Gather votes like a correct client would.
	tallies := newTallies(meta.Shards)
	res, err := c.collectVotes(id, tallies, ch, time.Now().Add(c.cfg.RetryTimeout), meta, t.depMetas, nil)
	if err != nil || res.cert != nil {
		return false // or already decided: nothing left to withhold
	}

	switch mode {
	case FaultStallLate:
		// Make the decision durable if the slow path requires it, then
		// withhold the writeback so dependents must recover.
		if !res.fast {
			_, _ = c.logDecision(meta, id, res, 0)
		}
		return true
	case FaultEquivReal, FaultEquivForced:
		commitTallies, abortTallies, can := c.equivocationTallies(id, res, meta, mode == FaultEquivForced)
		if !can {
			// Equivocation impossible: fall back to stalling late.
			if !res.fast {
				_, _ = c.logDecision(meta, id, res, 0)
			}
			return false
		}
		c.sendConflictingST2(meta, id, commitTallies, abortTallies)
		return true
	default:
		return false
	}
}

// equivocationTallies determines whether the collected votes allow the
// client to justify both decisions (≥3f+1 commits and ≥f+1 aborts on some
// shard, paper §5), returning tally sets justifying each. With forced set,
// fabricated empty tallies are returned (replicas must be configured to
// skip validation).
func (c *Client) equivocationTallies(id types.TxID, res prepareResult, meta *types.TxMeta, forced bool) (commitT, abortT []types.VoteTally, ok bool) {
	if forced {
		for _, t := range res.tallies {
			vt := t.toVoteTally(id, c.qc)
			vt.Vote = types.VoteCommit
			commitT = append(commitT, vt)
			va := t.toVoteTally(id, c.qc)
			va.Vote = types.VoteAbort
			abortT = append(abortT, va)
		}
		return commitT, abortT, true
	}
	// Real equivocation: every shard must justify commit (CQ), and at
	// least one shard must also justify abort (AQ).
	haveAbort := false
	for _, s := range meta.Shards {
		t := res.tallies[s]
		if len(t.commits) < c.qc.CommitQuorum() {
			return nil, nil, false
		}
		vt := types.VoteTally{TxID: id, ShardID: s, Vote: types.VoteCommit}
		vt.Replies = append(vt.Replies, t.commits...)
		commitT = append(commitT, vt)
		if !haveAbort && len(t.aborts) >= c.qc.AbortQuorum() {
			va := types.VoteTally{TxID: id, ShardID: s, Vote: types.VoteAbort}
			va.Replies = append(va.Replies, t.aborts...)
			abortT = append(abortT, va)
			haveAbort = true
		}
	}
	if !haveAbort {
		return nil, nil, false
	}
	return commitT, abortT, true
}

// sendConflictingST2 splits the logging shard's replicas in half and logs
// Commit on one half, Abort on the other (Figure 3's equivocation), then
// stalls.
func (c *Client) sendConflictingST2(meta *types.TxMeta, id types.TxID, commitT, abortT []types.VoteTally) {
	reqID, _ := c.newRequest(1)
	defer c.endRequest(reqID)
	logShard := meta.LogShard()
	n := c.qc.N()
	commitReq := &types.ST2Request{
		ReqID: reqID, ClientID: uint64(c.cfg.ID), TxID: id, Meta: meta,
		Decision: types.DecisionCommit, Tallies: commitT,
	}
	abortReq := &types.ST2Request{
		ReqID: reqID, ClientID: uint64(c.cfg.ID), TxID: id, Meta: meta,
		Decision: types.DecisionAbort, Tallies: abortT,
	}
	for i := 0; i < n; i++ {
		msg := any(commitReq)
		if i%2 == 1 {
			msg = abortReq
		}
		c.send(transport.ReplicaAddr(logShard, int32(i)), msg)
	}
}
