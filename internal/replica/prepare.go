package replica

import (
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/types"
)

// onST1 runs the Prepare-phase concurrency-control check (paper §4.2
// step 2, Algorithm 1). A correct replica executes the check at most once
// per transaction — the first worker to claim checkStarted owns it — and
// stores its vote for duplicate and recovery requests; duplicates that
// arrive while the check is in flight queue as voteWaiters and are
// answered when the vote resolves.
func (r *Replica) onST1(from transport.Addr, m *types.ST1Request) {
	if m.Meta == nil {
		return
	}
	id := m.Meta.ID()
	r.Stats.ST1s.Add(1)

	// Resurrection guard (lifecycle.go): a duplicate for a collected
	// transaction is answered from the store's finalized table, a
	// below-watermark request with no provable outcome is dropped —
	// neither rebuilds votable state.
	switch rec, oc := r.lifecycleCheck(id, m.Meta.Timestamp); oc {
	case lifecycleStale:
		r.adm.noteStale(m.ClientID)
		return
	case lifecycleServed:
		if r.serveFinalized(from, m.ReqID, rec) {
			return
		}
	}

	if m.Recovery && m.ClientID != m.Meta.Timestamp.ClientID {
		// Someone other than the owner is recovering this transaction: the
		// owner left it hanging. Reputation signal, not the recoverer's.
		r.adm.noteRecovery(m.Meta.Timestamp.ClientID)
	}

	t := r.tx(id)
	t.mu.Lock()
	if rec, ok := r.provenLocked(t); ok {
		// Finalized with a certificate, possibly collected since the
		// lifecycle check: the certificate is the answer, never a check
		// re-run on fresh state. This is also the recovery fast-forward
		// (paper §5 common case), and it registers no interest, so an
		// answered client does not pin the state as non-collectable.
		t.mu.Unlock()
		r.serveFinalized(from, m.ReqID, rec)
		return
	}
	if t.meta == nil {
		t.meta = m.Meta
	}
	if m.Recovery {
		// Recovery fast-forward for a logged decision: return it as well
		// as the plain vote.
		r.addWaiterLocked(&t.interested, from, m.ReqID)
		if t.decisionLogged {
			r.replyLoggedDecisionLocked(from, m.ReqID, t)
			// Fall through to the stage-1 vote as well: recovery must
			// surface every artifact this replica holds. A client that
			// finds only a minority of logged decisions cannot assemble an
			// ST2 certificate from them, and without votes it could
			// neither re-log the decision nor arm the fallback with
			// justifying tallies — the transaction would be stuck for
			// every recoverer.
		}
	}
	if t.voteReady {
		r.sendVoteLocked(from, m.ReqID, t)
		t.mu.Unlock()
		return
	}
	if t.checkStarted {
		// The check is running on another worker or waiting on
		// dependencies; owe this client a vote.
		r.addWaiterLocked(&t.voteWaiters, from, m.ReqID)
		t.mu.Unlock()
		return
	}
	t.checkStarted = true
	t.mu.Unlock()

	// The check touches only the store (stripe-locked) — no protocol lock
	// is held while it runs.
	vote, conflict, conflictMeta, blockedBy, pendingDeps, depAborted := r.runCheck(m.Meta, id, m.TC)

	t.mu.Lock()
	if t.voteReady {
		// A writeback finalized the transaction while the check ran; the
		// stored vote (derived from the outcome) wins.
		r.sendVoteLocked(from, m.ReqID, t)
		r.flushVoteWaitersLocked(t)
		t.mu.Unlock()
		return
	}
	if vote == types.VoteCommit && len(pendingDeps) > 0 {
		// Algorithm 1 line 15: defer the vote until dependencies decide.
		r.Stats.DepWaits.Add(1)
		r.addWaiterLocked(&t.voteWaiters, from, m.ReqID)
		if depAborted {
			t.depAborted = true
		}
		if t.waitingOn == nil {
			t.waitingOn = make(map[types.TxID]bool, len(pendingDeps))
		}
		for _, dep := range pendingDeps {
			t.waitingOn[dep] = true
		}
		t.mu.Unlock()
		r.registerDeps(id, pendingDeps)
		return
	}
	if vote == types.VoteCommit && depAborted {
		// Line 16–18: a dependency aborted; withdraw the prepare.
		r.store.RemovePrepared(id)
		vote = types.VoteAbort
	}
	r.finishVoteLocked(t, vote, conflict, conflictMeta, m.TC)
	if t.blockedBy == nil {
		t.blockedBy = blockedBy
	}
	r.sendVoteLocked(from, m.ReqID, t)
	r.flushVoteWaitersLocked(t)
	t.mu.Unlock()
}

// registerDeps subscribes id to its pending dependencies' decisions, then
// closes the registration race: a dependency that finalized between the
// check and the registration will never fire another wakeup, so its
// decision is resolved from store state immediately.
func (r *Replica) registerDeps(id types.TxID, deps []types.TxID) {
	r.mu.Lock()
	for _, dep := range deps {
		r.depWaiters[dep] = append(r.depWaiters[dep], id)
	}
	r.mu.Unlock()
	for _, dep := range deps {
		var dec types.Decision
		switch r.store.TxStatusOf(dep) {
		case store.StatusCommitted:
			dec = types.DecisionCommit
		case store.StatusAborted:
			dec = types.DecisionAbort
		default:
			continue
		}
		// The dependency finalized before (or while) we registered, so no
		// future finalize pass will consume depWaiters[dep]: pop whatever is
		// there and resolve every waiter from the store state directly. The
		// list may hold other registrants whose own re-check raced the
		// finalize the other way (saw StatusPrepared before the status was
		// published) — dropping their entries without resolving them would
		// stall their votes forever. resolveDependency is idempotent under
		// the voteReady guard, so double-resolving a waiter that finalize
		// also saw is harmless.
		r.mu.Lock()
		stale := r.depWaiters[dep]
		delete(r.depWaiters, dep)
		r.mu.Unlock()
		resolvedSelf := false
		for _, w := range stale {
			r.resolveDependency(w, dep, dec)
			if w == id {
				resolvedSelf = true
			}
		}
		if !resolvedSelf {
			// finalize popped our entry (and will resolve it), but resolving
			// here too costs nothing and keeps this path self-contained.
			r.resolveDependency(id, dep, dec)
		}
	}
}

// runCheck performs Algorithm 1 lines 1–14 and classifies dependencies.
// It returns the tentative vote, optional conflict evidence, the set of
// still-undecided dependencies, and whether any dependency already aborted.
func (r *Replica) runCheck(meta *types.TxMeta, id types.TxID, tc types.TraceContext) (types.Vote, *types.DecisionCert, *types.TxMeta, *types.TxMeta, []types.TxID, bool) {
	// Line 1: timestamp admission.
	if !r.withinDelta(meta.Timestamp) {
		return types.VoteAbort, nil, nil, nil, nil, false
	}
	// Lines 3–4: dependency validity. Each dependency must name a
	// transaction this replica has prepared or committed, producing the
	// claimed version.
	var pending []types.TxID
	depAborted := false
	for _, d := range meta.Deps {
		rec, ok := r.store.Tx(d.TxID)
		if !ok || rec.Meta == nil || rec.Meta.Timestamp != d.Version {
			return types.VoteAbort, nil, nil, nil, nil, false
		}
		switch rec.Status {
		case store.StatusAborted:
			depAborted = true
		case store.StatusPrepared:
			pending = append(pending, d.TxID)
		}
	}
	// Lines 5–14: serializability checks + prepare.
	ckStart := r.tracer.Start(tc)
	res := r.store.CheckAndPrepare(meta, id)
	r.tracer.End(tc, r.traceNode, "replica.check", 0, ckStart)
	switch res.Outcome {
	case store.CheckMisbehavior:
		r.Stats.Misbehavior.Add(1)
		return types.VoteAbort, nil, nil, nil, nil, false
	case store.CheckAbort:
		return types.VoteAbort, res.Conflict, res.ConflictMeta, res.PreparedConflict, nil, false
	case store.CheckDuplicate:
		// Vote already stored (or the transaction is finalized); the
		// caller resends the stored vote.
		return types.VoteNone, nil, nil, nil, nil, false
	}
	return types.VoteCommit, nil, nil, nil, pending, depAborted
}

// finishVoteLocked fixes the replica's stage-1 vote, making it durable
// before any reply can carry it: the WAL append (group-committed) runs
// under t.mu, and every reply path reads the vote under the same lock,
// so a vote that reaches the wire is always already on disk. Caller
// holds t.mu.
func (r *Replica) finishVoteLocked(t *txState, vote types.Vote, conflict *types.DecisionCert, conflictMeta *types.TxMeta, tc types.TraceContext) {
	if t.voteReady || vote == types.VoteNone {
		if !t.voteReady && vote == types.VoteNone {
			// Duplicate outcome without a stored vote can only happen if
			// the transaction was finalized straight from a writeback;
			// derive the vote from the final status. The finalize record
			// already made the outcome durable, so no separate vote
			// record is needed.
			switch r.store.TxStatusOf(t.id) {
			case store.StatusCommitted:
				t.vote, t.voteReady = types.VoteCommit, true
			case store.StatusAborted:
				t.vote, t.voteReady = types.VoteAbort, true
			}
			if t.voteReady && !t.finalized {
				r.markLive(t)
			}
		}
		return
	}
	if r.cfg.Byzantine != nil {
		vote = r.cfg.Byzantine.MutateVote(t.id, vote)
		if vote == types.VoteNone {
			return // suppressed
		}
	}
	t.vote = vote
	t.voteReady = true
	t.voteConflict = conflict
	t.conflictMeta = conflictMeta
	if !r.logVoteLocked(t, tc) {
		// The promise never reached disk; withdraw it so no reply is
		// sent. The replica is mute from here on (fail-stop).
		t.vote, t.voteReady = types.VoteNone, false
		t.voteConflict, t.conflictMeta = nil, nil
		return
	}
	r.markLive(t)
	if vote == types.VoteCommit {
		r.Stats.VotesCommit.Add(1)
	} else {
		r.Stats.VotesAbort.Add(1)
		if t.meta != nil {
			r.adm.noteAbortVote(t.meta.Timestamp.ClientID)
		}
	}
}

// sendVoteLocked signs and sends the stored ST1 vote to one client.
// Caller holds t.mu; signing is enqueued to the batcher (which may run it
// on this goroutine when it completes a batch or batching is off).
func (r *Replica) sendVoteLocked(to transport.Addr, reqID uint64, t *txState) {
	if !t.voteReady {
		r.addWaiterLocked(&t.voteWaiters, to, reqID)
		return
	}
	vote, conflict, conflictMeta := t.vote, t.voteConflict, t.conflictMeta
	if eq, ok := r.cfg.Byzantine.(VoteEquivocator); ok {
		// Per-recipient equivocation: the stored (and logged) vote stays
		// honest; only this recipient's reply is corrupted. A flipped
		// vote drops the conflict evidence — the equivocator has no
		// proof for the vote it invents.
		if v := eq.EquivocateVote(t.id, to, vote); v != vote {
			if v == types.VoteNone {
				return // suppressed for this recipient
			}
			vote, conflict, conflictMeta = v, nil, nil
		}
	}
	reply := &types.ST1Reply{
		ReqID:     reqID,
		TxID:      t.id,
		ShardID:   r.cfg.Shard,
		ReplicaID: r.cfg.Index,
		Vote:      vote,
		RPKind:    types.RPVote,
	}
	// Plain votes carry no evidence and allocate none.
	if conflict != nil || conflictMeta != nil || t.blockedBy != nil {
		reply.Ev = &types.ST1Evidence{Conflict: conflict, ConflictMeta: conflictMeta, BlockedBy: t.blockedBy}
	}
	r.signThen(reply.Payload(), func(sig types.Signature) {
		reply.Sig = sig
		r.send(to, reply)
	})
}

// flushVoteWaitersLocked answers every client owed a vote. Caller holds
// t.mu. No-op while the vote is still unresolved (or suppressed).
func (r *Replica) flushVoteWaitersLocked(t *txState) {
	if !t.voteReady || t.voteWaiters.length() == 0 {
		return
	}
	for addr, reqID := range t.voteWaiters.take() {
		r.sendVoteLocked(addr, reqID, t)
	}
}

// replyLoggedDecisionLocked answers a recovery request with the signed
// logged ST2 decision. Caller holds t.mu.
func (r *Replica) replyLoggedDecisionLocked(to transport.Addr, reqID uint64, t *txState) {
	st2r := &types.ST2Reply{
		ReqID:        reqID,
		TxID:         t.id,
		ShardID:      r.cfg.Shard,
		ReplicaID:    r.cfg.Index,
		Decision:     t.decision,
		ViewDecision: t.viewDecision,
		ViewCurrent:  t.viewCurrent,
	}
	reply := &types.ST1Reply{
		ReqID: reqID, TxID: t.id, ShardID: r.cfg.Shard, ReplicaID: r.cfg.Index,
		RPKind: types.RPDecision, Decision: t.decision, Ev: &types.ST1Evidence{ST2R: st2r},
	}
	r.signThen(st2r.Payload(), func(sig types.Signature) {
		st2r.Sig = sig
		r.send(to, reply)
	})
}

// onST2 logs the client's tentative 2PC decision on the logging shard
// (paper §4.2 stage 2). The replica validates that the decision is
// justified by the attached vote tallies before it creates or touches any
// transaction state — the signature checks run on this worker (fanned
// through the verify pool), never under a protocol lock. Correct replicas
// never change a logged decision within a view (equivocating clients
// therefore produce divergent logs that only the fallback reconciles).
func (r *Replica) onST2(from transport.Addr, m *types.ST2Request) {
	if m.Meta == nil || m.Meta.ID() != m.TxID {
		return
	}
	if m.Meta.LogShard() != r.cfg.Shard {
		return // not the logging shard for this transaction
	}
	r.Stats.ST2s.Add(1)
	// Resurrection guard: an ST2 for a collected transaction gets the
	// proven outcome (a certificate beats a logged decision; the client's
	// recovery paths consume RPCert) instead of re-logging a decision into
	// fresh state; below-watermark requests with no outcome are dropped.
	switch rec, oc := r.lifecycleCheck(m.TxID, m.Meta.Timestamp); oc {
	case lifecycleStale:
		r.adm.noteStale(m.ClientID)
		return
	case lifecycleServed:
		if r.serveFinalized(from, m.ReqID, rec) {
			return
		}
	}
	validated := r.cfg.AllowUnvalidatedST2
	if !validated && !r.decisionLoggedFor(m.TxID) {
		vfStart := r.tracer.Start(m.TC)
		err := r.qv.VerifyTallyJustifies(m.Meta, m.Decision, m.Tallies)
		r.tracer.End(m.TC, r.traceNode, "replica.verify", 0, vfStart)
		if err != nil {
			return
		}
		validated = true
	}
	t := r.tx(m.TxID)
	t.mu.Lock()
	if rec, ok := r.provenLocked(t); ok {
		t.mu.Unlock()
		r.serveFinalized(from, m.ReqID, rec)
		return
	}
	if !validated && !t.decisionLogged {
		// The logged decision that let the tallies go unchecked belonged
		// to a state collected since: never log an unvalidated decision
		// in its place. The client retries.
		t.mu.Unlock()
		return
	}
	if t.meta == nil {
		t.meta = m.Meta
	}
	r.addWaiterLocked(&t.interested, from, m.ReqID)
	if !t.decisionLogged && t.viewCurrent <= m.View {
		t.decision = m.Decision
		t.decisionLogged = true
		t.viewDecision = m.View
		if !r.logDecisionLocked(t, m.TC) {
			// Never acknowledge a decision that is not on disk.
			t.decisionLogged = false
			t.mu.Unlock()
			return
		}
		r.markLive(t)
	}
	r.replyLoggedDecisionST2Locked(from, m.ReqID, t)
	t.mu.Unlock()
}

// decisionLoggedFor reports whether a decision is already logged for id —
// re-delivered ST2s for a logged transaction skip tally re-validation and
// just get the stored decision back.
func (r *Replica) decisionLoggedFor(id types.TxID) bool {
	t := r.peekTx(id)
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.decisionLogged
}

// replyLoggedDecisionST2Locked sends a plain ST2R. Caller holds t.mu.
func (r *Replica) replyLoggedDecisionST2Locked(to transport.Addr, reqID uint64, t *txState) {
	if !t.decisionLogged {
		return
	}
	st2r := &types.ST2Reply{
		ReqID:        reqID,
		TxID:         t.id,
		ShardID:      r.cfg.Shard,
		ReplicaID:    r.cfg.Index,
		Decision:     t.decision,
		ViewDecision: t.viewDecision,
		ViewCurrent:  t.viewCurrent,
	}
	r.signThen(st2r.Payload(), func(sig types.Signature) {
		st2r.Sig = sig
		r.send(to, st2r)
	})
}

// onWriteback applies a decision certificate (paper §4.3 step 2): validate,
// finalize the store, wake dependent transactions, and notify interested
// recovery clients. The certificate is validated before any state exists
// for the transaction.
func (r *Replica) onWriteback(_ transport.Addr, m *types.WritebackRequest) {
	if m.Meta == nil || m.Cert == nil || m.Meta.ID() != m.TxID || m.Cert.TxID != m.TxID ||
		m.Decision != m.Cert.Decision {
		r.adm.noteBadCert(m.ClientID)
		return
	}
	// Resurrection guard: a writeback below the watermark for GC-truncated
	// history is dropped; one whose outcome (with certificate) the store
	// already proves is a pure duplicate — writebacks carry no reply, so
	// there is nothing to re-serve and no state to rebuild. A finalized
	// record still missing its certificate falls through: finalize attaches
	// it and notifies anyone interested.
	switch rec, oc := r.lifecycleCheck(m.TxID, m.Meta.Timestamp); oc {
	case lifecycleStale:
		return
	case lifecycleServed:
		if rec.Cert != nil {
			return
		}
	}
	vfStart := r.tracer.Start(m.TC)
	err := r.qv.VerifyDecisionCert(m.Cert, m.Meta)
	r.tracer.End(m.TC, r.traceNode, "replica.verify", 0, vfStart)
	if err != nil {
		r.adm.noteBadCert(m.ClientID)
		return
	}
	r.Stats.Writebacks.Add(1)
	r.finalize(m.TxID, m.Meta, m.Decision, m.Cert, m.TC)
}

// finalize records a proven decision, updates the store, and resolves
// dependency waits. The decision (with its certificate) is durably
// logged before anything is applied or replied — WAL discipline — so a
// restarted replica rejoins with every finalized outcome it ever acted
// on.
func (r *Replica) finalize(id types.TxID, meta *types.TxMeta, dec types.Decision, cert *types.DecisionCert, tc types.TraceContext) {
	// The log-then-apply pair is fenced against checkpoint rotation
	// (Replica.applyMu): a checkpoint that rotated after our record was
	// appended waits for the store apply before snapshotting, so the
	// outcome is always in the kept suffix or in the snapshot.
	r.applyMu.RLock()
	if !r.logFinal(id, meta, dec, cert, tc) {
		r.applyMu.RUnlock()
		return // mute: the outcome never reached disk
	}
	changed := r.store.Finalize(id, meta, dec, cert)
	r.applyMu.RUnlock()
	t := r.tx(id)
	t.mu.Lock()
	if t.meta == nil {
		t.meta = meta
	}
	first := !t.finalized
	t.finalized = true
	if !t.voteReady {
		// Align the stored vote with the outcome for late duplicate ST1s.
		t.vote = types.VoteCommit
		if dec == types.DecisionAbort {
			t.vote = types.VoteAbort
		}
		t.voteReady = true
	}
	// Clients whose ST1 raced the writeback get their (derived) vote now.
	r.flushVoteWaitersLocked(t)
	interested := t.interested.take()
	t.mu.Unlock()
	// Finalized states leave the checkpoint-capture index: the outcome is
	// in the store section of every future snapshot.
	r.unmarkLive(id)
	if cert != nil && r.dropTx(t) {
		// With the certificate in the store, every later request is
		// answered from there (lifecycleCheck, provenLocked), so the
		// state goes now rather than at a watermark that trails the
		// clock by 2δ. A certless record (only tests finalize without a
		// certificate) keeps its state until the watermark.
		r.Stats.TxCollected.Add(1)
	}
	if first && dec == types.DecisionCommit && meta != nil {
		r.adm.noteCommitted(meta.Timestamp.ClientID)
	}

	var waiters []types.TxID
	if changed || first {
		r.mu.Lock()
		waiters = r.depWaiters[id]
		delete(r.depWaiters, id)
		r.mu.Unlock()
	}

	// Notify clients that were recovering this transaction.
	for addr, reqID := range interested {
		reply := &types.ST1Reply{
			ReqID: reqID, TxID: id, ShardID: r.cfg.Shard, ReplicaID: r.cfg.Index,
			RPKind: types.RPCert, Ev: &types.ST1Evidence{Cert: cert, CertMeta: meta},
		}
		r.send(addr, reply)
	}

	// Wake transactions whose votes were deferred on this dependency
	// (Algorithm 1 lines 15–19).
	for _, waiter := range waiters {
		r.resolveDependency(waiter, id, dec)
	}
}

// resolveDependency marks dep decided for the waiting transaction and, if
// it was the last one, fixes the vote and answers the queued clients.
func (r *Replica) resolveDependency(waiter, dep types.TxID, dec types.Decision) {
	t := r.peekTx(waiter)
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.voteReady {
		return
	}
	delete(t.waitingOn, dep)
	if dec == types.DecisionAbort {
		t.depAborted = true
	}
	if len(t.waitingOn) > 0 {
		return
	}
	vote := types.VoteCommit
	if t.depAborted {
		r.store.RemovePrepared(waiter)
		vote = types.VoteAbort
	}
	// Dependency resolution happens long after the triggering request, so
	// there is no carrier context to attribute the vote to.
	r.finishVoteLocked(t, vote, nil, nil, types.TraceContext{})
	r.flushVoteWaitersLocked(t)
}
