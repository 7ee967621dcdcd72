package client

import (
	"time"

	"repro/internal/quorum"
	"repro/internal/types"
)

// shardTally accumulates one shard's stage-1 votes (paper §4.2 step 4).
type shardTally struct {
	shard        int32
	seen         map[int32]bool
	commits      []types.ST1Reply
	aborts       []types.ST1Reply
	conflict     *types.DecisionCert
	conflictMeta *types.TxMeta
	conflictVote *types.ST1Reply
	// blockers are prepared-but-undecided transactions replicas reported
	// as the cause of abort votes; the client finishes them before
	// retrying (§5 invariant).
	blockers map[types.TxID]*types.TxMeta
}

func newTallies(shards []int32) map[int32]*shardTally {
	m := make(map[int32]*shardTally, len(shards))
	for _, s := range shards {
		m[s] = &shardTally{shard: s, seen: make(map[int32]bool),
			blockers: make(map[types.TxID]*types.TxMeta)}
	}
	return m
}

// add records a validated vote; returns false on duplicates.
func (t *shardTally) add(r *types.ST1Reply) bool {
	if t.seen[r.ReplicaID] {
		return false
	}
	t.seen[r.ReplicaID] = true
	if r.Vote == types.VoteCommit {
		t.commits = append(t.commits, *r)
	} else {
		t.aborts = append(t.aborts, *r)
	}
	return true
}

// outcome classifies the tally.
func (t *shardTally) outcome(qc quorum.Config) quorum.ShardOutcome {
	return qc.Classify(len(t.commits), len(t.aborts), t.conflict != nil)
}

// settled reports whether waiting longer can still improve this shard's
// classification toward a fast outcome.
func (t *shardTally) settled(qc quorum.Config) bool {
	o := t.outcome(qc)
	switch o {
	case quorum.OutcomeCommitFast, quorum.OutcomeAbortFast:
		return true
	case quorum.OutcomePending:
		return false
	default:
		return !qc.FastStillPossible(len(t.commits), len(t.aborts))
	}
}

// toVoteTally converts to the wire representation used in ST2 requests.
func (t *shardTally) toVoteTally(id types.TxID, qc quorum.Config) types.VoteTally {
	vt := types.VoteTally{TxID: id, ShardID: t.shard}
	o := t.outcome(qc)
	switch o {
	case quorum.OutcomeCommitFast, quorum.OutcomeCommitSlow:
		vt.Vote = types.VoteCommit
		vt.Replies = append(vt.Replies, t.commits...)
	default:
		vt.Vote = types.VoteAbort
		if t.conflict != nil && t.conflictVote != nil {
			vt.Conflict = t.conflict
			vt.ConflictMeta = t.conflictMeta
			vt.Replies = []types.ST1Reply{*t.conflictVote}
		} else {
			vt.Replies = append(vt.Replies, t.aborts...)
		}
	}
	return vt
}

// acceptST1Reply validates and tallies one ST1 vote. It returns true if
// the reply advanced the tally.
func (c *Client) acceptST1Reply(id types.TxID, tallies map[int32]*shardTally, r *types.ST1Reply) bool {
	t := tallies[r.ShardID]
	if t == nil || r.TxID != id || r.Vote == types.VoteNone {
		return false
	}
	if c.qv.VerifyST1Reply(r, id) != nil {
		return false
	}
	if !t.add(r) {
		return false
	}
	ev := r.Evidence()
	if r.Vote == types.VoteAbort && ev.BlockedBy != nil && len(t.blockers) < 4 {
		t.blockers[ev.BlockedBy.ID()] = ev.BlockedBy
	}
	// Abort-with-conflict fast path (case 5): validate the embedded
	// commit certificate of the conflicting transaction.
	if r.Vote == types.VoteAbort && ev.Conflict != nil && ev.ConflictMeta != nil && t.conflict == nil {
		if ev.ConflictMeta.ID() == ev.Conflict.TxID &&
			ev.Conflict.Decision == types.DecisionCommit &&
			c.qv.VerifyDecisionCert(ev.Conflict, ev.ConflictMeta) == nil {
			t.conflict = ev.Conflict
			t.conflictMeta = ev.ConflictMeta
			t.conflictVote = r
		}
	}
	return true
}

// prepareResult is the aggregate of stage 1.
type prepareResult struct {
	decision types.Decision
	fast     bool // decision durable without ST2
	tallies  map[int32]*shardTally
	// cert, when set, is a verified decision certificate a replica sent
	// instead of a vote: the transaction is already decided.
	cert *types.DecisionCert
}

// servedCert returns r's decision certificate for transaction id when r
// is a valid RPCert reply, or nil. Replicas answer with the certificate
// once they have finalized (and collected) a transaction, for example
// after another client finished it as a dependency of its own.
func (c *Client) servedCert(id types.TxID, r *types.ST1Reply) *types.DecisionCert {
	ev := r.Evidence()
	if r.RPKind != types.RPCert || ev.Cert == nil || ev.CertMeta == nil || ev.CertMeta.ID() != id ||
		c.qv.VerifyDecisionCert(ev.Cert, ev.CertMeta) != nil {
		return nil
	}
	return ev.Cert
}

// decide computes the global 2PC outcome from settled tallies: commit iff
// every shard voted commit; fast iff there are no slow shards or a single
// fast-abort shard exists (paper §4.2 step 4).
func (c *Client) decide(tallies map[int32]*shardTally) (prepareResult, error) {
	res := prepareResult{decision: types.DecisionCommit, fast: true, tallies: tallies}
	for _, t := range tallies {
		switch t.outcome(c.qc) {
		case quorum.OutcomePending:
			return res, errPending
		case quorum.OutcomeAbortFast:
			res.decision = types.DecisionAbort
			res.fast = true // a single fast abort V-CERT suffices
			return res, nil
		case quorum.OutcomeAbortSlow:
			res.decision = types.DecisionAbort
			res.fast = false
		case quorum.OutcomeCommitSlow:
			res.fast = false
		case quorum.OutcomeCommitFast:
			// contributes a durable commit vote
		}
	}
	if c.cfg.DisableFastPath {
		res.fast = false
	}
	return res, nil
}

// runPrepare executes stage 1 (vote aggregation), optionally stage 2
// (decision logging) and the writeback phase for meta. depMetas supplies
// writer metadata for this transaction's dependencies so stalled ones can
// be finished (paper §5).
func (c *Client) runPrepare(meta *types.TxMeta, depMetas map[types.TxID]*types.TxMeta) (types.Decision, error) {
	id := meta.ID()
	deadline := time.Now().Add(c.cfg.RetryTimeout)

	reqID, ch := c.newRequest(c.qc.N() * len(meta.Shards) * 2)
	defer c.endRequest(reqID)
	prepStart := c.tracer.Start(c.curTC)
	st1 := &types.ST1Request{ReqID: reqID, ClientID: uint64(c.cfg.ID), Meta: meta, TC: c.curTC}
	for _, s := range meta.Shards {
		c.broadcastShard(s, st1)
	}

	tallies := newTallies(meta.Shards)
	resend := func() {
		// Rebroadcast only to shards that can still improve: settled
		// tallies owe us nothing, and re-asking them is pure load.
		for _, s := range meta.Shards {
			if !tallies[s].settled(c.qc) {
				c.broadcastShard(s, st1)
			}
		}
	}
	res, err := c.collectVotes(id, tallies, ch, deadline, meta, depMetas, resend)
	c.tracer.End(c.curTC, c.traceNode, "client.prepare", c.curRoot, prepStart)
	if err != nil {
		return types.DecisionNone, err
	}
	if res.cert != nil {
		c.writeback(meta, res.cert.Decision, res.cert)
		return res.cert.Decision, nil
	}

	if res.fast {
		c.Stats.FastPathTaken.Add(1)
		cert := c.buildFastCert(id, meta, res)
		c.writeback(meta, res.decision, cert)
		if res.decision == types.DecisionAbort {
			c.recoverBlockers(tallies)
		}
		return res.decision, nil
	}
	c.Stats.SlowPathTaken.Add(1)
	cert, err := c.logDecision(meta, id, res, 0)
	if err != nil {
		// The logging shard disagreed or starved: recover our own
		// transaction via the fallback.
		dec, _, rerr := c.FinishTransaction(meta)
		if rerr != nil {
			return types.DecisionNone, rerr
		}
		return dec, nil
	}
	c.writeback(meta, cert.Decision, cert)
	if cert.Decision == types.DecisionAbort {
		c.recoverBlockers(tallies)
	}
	return cert.Decision, nil
}

// recoverBlockers finishes the prepared-but-undecided transactions that
// replicas blamed for this abort, so the retry finds them decided. The
// client deduplicates recent recoveries to bound wasted work if Byzantine
// replicas report bogus blockers.
func (c *Client) recoverBlockers(tallies map[int32]*shardTally) {
	done := 0
	for _, t := range tallies {
		for id, meta := range t.blockers {
			if done >= 2 {
				return
			}
			if !c.markRecovery(id) {
				continue
			}
			done++
			c.Stats.Recoveries.Add(1)
			_, _, _ = c.FinishTransaction(meta)
		}
	}
}

// collectVotes gathers ST1 replies until every shard settles. On phase
// timeouts it recovers stalled dependencies, rebroadcasts to unsettled
// shards and keeps waiting (replicas queue our vote request and answer
// once their dependency wait resolves). Overloaded shed replies schedule
// a jittered backoff resend instead of waiting out the phase timer.
func (c *Client) collectVotes(id types.TxID, tallies map[int32]*shardTally, ch chan any,
	deadline time.Time, meta *types.TxMeta, depMetas map[types.TxID]*types.TxMeta, resend func()) (prepareResult, error) {

	retry := newOverloadRetry(c, resend)
	defer retry.stop()
	recovered := false
	var fastTimer *time.Timer
	var fastC <-chan time.Time
	fastExpired := false
	phase := time.NewTimer(c.cfg.PhaseTimeout)
	defer phase.Stop()
	defer func() {
		if fastTimer != nil {
			fastTimer.Stop()
		}
	}()

	ready := func() (prepareResult, bool) {
		allSettled := true
		anyPending := false
		for _, t := range tallies {
			if !t.settled(c.qc) {
				allSettled = false
			}
			if t.outcome(c.qc) == quorum.OutcomePending {
				anyPending = true
			}
		}
		if allSettled || (fastExpired && !anyPending) {
			res, err := c.decide(tallies)
			if err == nil {
				return res, true
			}
		}
		if !anyPending && fastTimer == nil && !allSettled {
			// Classifiable but not fast-settled: give stragglers a short
			// window to complete the fast path, then decide.
			fastTimer = time.NewTimer(c.cfg.FastPathWait)
			fastC = fastTimer.C
		}
		return prepareResult{}, false
	}

	for {
		if res, ok := ready(); ok {
			return res, nil
		}
		select {
		case m := <-ch:
			switch r := m.(type) {
			case *types.ST1Reply:
				switch {
				case r.RPKind == types.RPCert:
					if cert := c.servedCert(id, r); cert != nil {
						return prepareResult{decision: cert.Decision, tallies: tallies, cert: cert}, nil
					}
				case r.Evidence().ST2R == nil:
					c.acceptST1Reply(id, tallies, r)
				}
			case *types.Overloaded:
				retry.note(r)
			}
		case <-retry.C:
			retry.fire()
		case <-fastC:
			fastExpired = true
			fastC = nil
		case <-phase.C:
			if time.Now().After(deadline) {
				return prepareResult{}, ErrTimeout
			}
			if !recovered && len(depMetas) > 0 {
				recovered = true
				c.Stats.Recoveries.Add(1)
				for _, dm := range depMetas {
					// Finishing a stalled dependency unblocks the replicas
					// deferring our vote (paper §5).
					_, _, _ = c.FinishTransaction(dm)
				}
			}
			if resend != nil {
				resend() // replies may have been shed silently at the hard cap
			}
			phase.Reset(c.cfg.PhaseTimeout)
		}
	}
}

// buildFastCert assembles the fast-path decision certificate: per-shard
// fast commit V-CERTs, or a single fast-abort / conflict V-CERT.
func (c *Client) buildFastCert(id types.TxID, meta *types.TxMeta, res prepareResult) *types.DecisionCert {
	cert := &types.DecisionCert{TxID: id, Decision: res.decision}
	if res.decision == types.DecisionCommit {
		for _, s := range meta.Shards {
			t := res.tallies[s]
			cert.Shards = append(cert.Shards, types.ShardCert{
				ShardID: s, Kind: types.CertST1Fast, Vote: types.VoteCommit,
				ST1Rs: append([]types.ST1Reply(nil), t.commits...),
			})
		}
		return cert
	}
	for _, t := range res.tallies {
		switch {
		case t.conflict != nil && t.conflictVote != nil:
			cert.Shards = []types.ShardCert{{
				ShardID: t.shard, Kind: types.CertConflict, Vote: types.VoteAbort,
				ST1Rs:    []types.ST1Reply{*t.conflictVote},
				Conflict: t.conflict, ConflictMeta: t.conflictMeta,
			}}
			return cert
		case len(t.aborts) >= c.qc.FastAbort():
			cert.Shards = []types.ShardCert{{
				ShardID: t.shard, Kind: types.CertST1Fast, Vote: types.VoteAbort,
				ST1Rs: append([]types.ST1Reply(nil), t.aborts...),
			}}
			return cert
		}
	}
	// Unreachable when res.fast held; return a defensive empty abort cert.
	return cert
}

// logDecision runs stage 2: store the decision on the logging shard and
// assemble the V-CERT_Slog from n-f matching acknowledgements. A replica
// that already holds the transaction's certificate answers with it
// instead, and that certificate is returned; callers use its decision.
func (c *Client) logDecision(meta *types.TxMeta, id types.TxID, res prepareResult, view uint64) (*types.DecisionCert, error) {
	tallies := make([]types.VoteTally, 0, len(res.tallies))
	for _, t := range res.tallies {
		tallies = append(tallies, t.toVoteTally(id, c.qc))
	}
	reqID, ch := c.newRequest(c.qc.N() * 2)
	defer c.endRequest(reqID)
	st2Start := c.tracer.Start(c.curTC)
	st2 := &types.ST2Request{
		ReqID: reqID, ClientID: uint64(c.cfg.ID), TxID: id, Meta: meta,
		Decision: res.decision, Tallies: tallies, View: view, TC: c.curTC,
	}
	c.broadcastShard(meta.LogShard(), st2)
	st2rs, served, err := c.collectST2(id, meta.LogShard(), res.decision, ch,
		func() { c.broadcastShard(meta.LogShard(), st2) })
	c.tracer.End(c.curTC, c.traceNode, "client.st2", c.curRoot, st2Start)
	if err != nil {
		return nil, err
	}
	if served != nil {
		return served, nil
	}
	vote := types.VoteCommit
	if res.decision == types.DecisionAbort {
		vote = types.VoteAbort
	}
	return &types.DecisionCert{
		TxID: id, Decision: res.decision,
		Shards: []types.ShardCert{{
			ShardID: meta.LogShard(), Kind: types.CertST2Logged, Vote: vote, ST2Rs: st2rs,
		}},
	}, nil
}

// collectST2 waits for n-f ST2 acknowledgements from the logging shard
// matching the expected decision (and a single decision view). A
// mismatching ST2R means another client (or an equivocator) raced us:
// surface an error so the caller falls back to recovery. Replies from any
// shard but logShard are rejected — signatures bind a reply to its own
// shard's replica, not to the shard this request logged on (same
// cross-shard confusion as the read path). A valid certificate served in
// place of an ST2R ends the wait: it is returned as served.
func (c *Client) collectST2(id types.TxID, logShard int32, want types.Decision, ch chan any,
	resend func()) (st2rs []types.ST2Reply, served *types.DecisionCert, err error) {
	byKey := make(map[uint64][]types.ST2Reply) // viewDecision -> replies
	seen := make(map[int32]bool)
	mismatch := false
	retry := newOverloadRetry(c, resend)
	defer retry.stop()
	deadline := time.NewTimer(c.cfg.PhaseTimeout)
	defer deadline.Stop()
	for {
		select {
		case <-retry.C:
			retry.fire()
			continue
		case m := <-ch:
			if ov, isOv := m.(*types.Overloaded); isOv {
				retry.note(ov)
				continue
			}
			if r1, isST1 := m.(*types.ST1Reply); isST1 {
				if cert := c.servedCert(id, r1); cert != nil {
					return nil, cert, nil
				}
				continue // a stage-1 straggler
			}
			r, ok := m.(*types.ST2Reply)
			if !ok {
				continue
			}
			if r.TxID != id || r.ShardID != logShard || seen[r.ReplicaID] {
				continue
			}
			if c.qv.VerifyST2Reply(r, id) != nil {
				continue
			}
			seen[r.ReplicaID] = true
			if r.Decision != want {
				mismatch = true
				continue
			}
			byKey[r.ViewDecision] = append(byKey[r.ViewDecision], *r)
			if len(byKey[r.ViewDecision]) >= c.qc.LogQuorum() {
				return byKey[r.ViewDecision], nil, nil
			}
		case <-deadline.C:
			if mismatch {
				return nil, nil, errPending
			}
			return nil, nil, ErrTimeout
		}
	}
}

// writeback broadcasts the decision certificate to every participant shard
// (paper §4.3 step 1); it is asynchronous and needs no acknowledgement.
func (c *Client) writeback(meta *types.TxMeta, dec types.Decision, cert *types.DecisionCert) {
	wbStart := c.tracer.Start(c.curTC)
	wb := &types.WritebackRequest{
		ClientID: uint64(c.cfg.ID), TxID: cert.TxID, Decision: dec, Cert: cert, Meta: meta,
		TC: c.curTC,
	}
	for _, s := range meta.Shards {
		c.broadcastShard(s, wb)
	}
	c.tracer.End(c.curTC, c.traceNode, "client.writeback", c.curRoot, wbStart)
}
