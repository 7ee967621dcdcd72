package replica

import (
	"sort"

	"repro/internal/transport"
	"repro/internal/types"
)

// Fallback protocol (paper §5, divergent case).
//
// Views are per-transaction. A replica that receives InvokeFB reconciles
// its current view using rules R1/R2 with vote subsumption, then sends an
// ELECT-FB ballot (carrying its logged decision) to the fallback leader of
// the new view. A leader that gathers 4f+1 matching-view ballots proposes
// the majority decision in a DECFB; replicas at or below that view adopt
// it and answer interested clients with fresh ST2R messages.
//
// All signature verification happens before the transaction's state lock
// is taken (or in onInvokeFB's tally-adoption case, with the lock dropped
// around the check).

// leaderFor returns the replica index of view's fallback leader: the
// replica with id (view + idT mod n) mod n (paper §5 step 2).
func (r *Replica) leaderFor(id types.TxID, view uint64) int32 {
	n := uint64(r.qc.N())
	return int32((view + uint64(id.ShardIndex(int(n)))) % n)
}

// onInvokeFB handles a client's fallback invocation (paper §5 steps 1–2).
func (r *Replica) onInvokeFB(from transport.Addr, m *types.InvokeFB) {
	if m.Meta == nil || m.Meta.ID() != m.TxID {
		return
	}
	if m.Meta.LogShard() != r.cfg.Shard {
		return // the divergent case touches only the logging shard
	}
	r.Stats.FallbackInvoke.Add(1)
	r.frec.Note("fallback", "invoke received")

	// Resurrection guard (lifecycle.go): recovery of a collected
	// transaction is answered from the store's finalized table; a
	// below-watermark invocation with no provable outcome is dropped.
	switch rec, oc := r.lifecycleCheck(m.TxID, m.Meta.Timestamp); oc {
	case lifecycleStale:
		return
	case lifecycleServed:
		if r.serveFinalized(from, m.ReqID, rec) {
			return
		}
	}

	// Verify the signed current views attached to the invocation.
	views := make([]uint64, 0, len(m.ST2Rs))
	for i := range m.ST2Rs {
		st2r := &m.ST2Rs[i]
		if st2r.TxID != m.TxID || st2r.ShardID != r.cfg.Shard {
			continue
		}
		if r.qv.VerifyST2Reply(st2r, m.TxID) != nil {
			continue
		}
		views = append(views, st2r.ViewCurrent)
	}

	t := r.tx(m.TxID)
	t.mu.Lock()
	if rec, ok := r.provenLocked(t); ok {
		// Serve the certificate without registering interest, so an
		// answered client does not pin the state as non-collectable.
		t.mu.Unlock()
		r.serveFinalized(from, m.ReqID, rec)
		return
	}
	if t.meta == nil {
		t.meta = m.Meta
	}
	if t.finalized {
		// A certless finalized record (the certificate never reached
		// this replica) keeps the client registered for the eventual
		// writeback's notification round.
		r.addWaiterLocked(&t.interested, from, m.ReqID)
		t.mu.Unlock()
		return
	}
	r.addWaiterLocked(&t.interested, from, m.ReqID)

	// View reconciliation (paper §5 step 2 box, rules R1/R2 with vote
	// subsumption). An InvokeFB without view evidence is accepted only at
	// view 0 (Appendix B.5 optimization).
	newView := reconcileView(t.viewCurrent, views, r.qc.ViewCatchupStrong(), r.qc.ViewCatchupWeak())
	if len(views) == 0 && t.viewCurrent == 0 {
		newView = 1
	}
	if newView > t.viewCurrent {
		t.viewCurrent = newView
	}

	// A replica only casts ELECT-FB ballots once it has logged a decision
	// (Lemma 5). A replica that missed the ST2 adopts the invoking
	// client's decision after validating the attached tallies — with the
	// state lock dropped around the crypto.
	if !t.decisionLogged && m.Decision != types.DecisionNone && len(m.Tallies) > 0 {
		t.mu.Unlock()
		if err := r.qv.VerifyTallyJustifies(m.Meta, m.Decision, m.Tallies); err != nil {
			return
		}
		t.mu.Lock()
		if rec, ok := r.provenLocked(t); ok {
			// Finalized while the lock was dropped: the certificate, not
			// a ballot for the invoking client's decision, is the answer.
			t.mu.Unlock()
			r.serveFinalized(from, m.ReqID, rec)
			return
		}
		if !t.decisionLogged {
			t.decision = m.Decision
			t.decisionLogged = true
			t.viewDecision = 0
			if !r.logDecisionLocked(t, m.TC) {
				t.decisionLogged = false
				t.mu.Unlock()
				return
			}
			r.markLive(t)
		}
	}
	if !t.decisionLogged {
		t.mu.Unlock()
		return
	}
	ballot := &types.ElectFB{
		TxID:      m.TxID,
		ShardID:   r.cfg.Shard,
		ReplicaID: r.cfg.Index,
		Decision:  t.decision,
		View:      t.viewCurrent,
	}
	leader := r.leaderFor(m.TxID, t.viewCurrent)
	r.Stats.Elections.Add(1)
	t.mu.Unlock()
	r.frec.Note("election", "elect-fb ballot cast")

	r.signThen(ballot.Payload(), func(sig types.Signature) {
		ballot.Sig = sig
		r.send(transport.ReplicaAddr(r.cfg.Shard, leader), ballot)
	})
}

// reconcileView applies rules R1/R2: if some view v appears at least
// strong (3f+1) times under subsumption, advance to v+1; otherwise jump to
// the largest view above cur appearing at least weak (f+1) times.
func reconcileView(cur uint64, views []uint64, strong, weak int) uint64 {
	if len(views) == 0 {
		return cur
	}
	sorted := append([]uint64(nil), views...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	// With subsumption, view v is supported by every reported view ≥ v;
	// in the descending list, sorted[k] has k+1 supporters.
	best := cur
	for k, v := range sorted {
		support := k + 1
		if support >= strong && v+1 > best {
			best = v + 1
		}
		if support >= weak && v > cur && v > best {
			best = v
		}
	}
	// Deduplicate support counting: the loop above already considers each
	// distinct view at its highest support because later (smaller) views
	// have larger k.
	return best
}

// onElectFB collects ballots as the putative fallback leader (paper §5
// step 3).
func (r *Replica) onElectFB(_ transport.Addr, m *types.ElectFB) {
	if m.ShardID != r.cfg.Shard {
		return
	}
	if r.leaderFor(m.TxID, m.View) != r.cfg.Index {
		return // not the leader for that view
	}
	if m.ReplicaID < 0 || int(m.ReplicaID) >= r.qc.N() {
		return
	}
	sig := m.Sig
	if sig.SignerID != r.cfg.SignerOf(m.ShardID, m.ReplicaID) || !r.sv.Verify(m.Payload(), &sig) {
		return
	}
	t := r.tx(m.TxID)
	t.mu.Lock()
	if _, ok := r.provenLocked(t); ok {
		t.mu.Unlock()
		return // decided: there is no election left to win
	}
	if t.ballots == nil {
		t.ballots = make(map[uint64]map[int32]types.ElectFB)
	}
	byView := t.ballots[m.View]
	if byView == nil {
		byView = make(map[int32]types.ElectFB)
		t.ballots[m.View] = byView
	}
	if _, dup := byView[m.ReplicaID]; dup {
		t.mu.Unlock()
		return
	}
	byView[m.ReplicaID] = *m
	if len(byView) < r.qc.ElectQuorum() {
		t.mu.Unlock()
		return
	}
	// Elected: propose the majority decision among the ballots.
	elects := make([]types.ElectFB, 0, len(byView))
	commits := 0
	for _, b := range byView {
		elects = append(elects, b)
		if b.Decision == types.DecisionCommit {
			commits++
		}
	}
	delete(t.ballots, m.View) // propose at most once per view
	t.mu.Unlock()

	dec := types.DecisionAbort
	if commits*2 > len(elects) {
		dec = types.DecisionCommit
	}
	sort.Slice(elects, func(i, j int) bool { return elects[i].ReplicaID < elects[j].ReplicaID })
	decMsg := &types.DecFB{
		TxID:     m.TxID,
		ShardID:  r.cfg.Shard,
		LeaderID: r.cfg.Index,
		Decision: dec,
		View:     m.View,
		Elects:   elects,
	}
	r.Stats.DecFBs.Add(1)
	r.signThen(decMsg.Payload(), func(sig types.Signature) {
		decMsg.Sig = sig
		r.broadcastShard(decMsg)
	})
}

// onDecFB adopts a fallback leader's reconciled decision (paper §5 step 4)
// and answers interested clients with fresh ST2R messages.
func (r *Replica) onDecFB(_ transport.Addr, m *types.DecFB) {
	if m.ShardID != r.cfg.Shard {
		return
	}
	if r.leaderFor(m.TxID, m.View) != m.LeaderID {
		return
	}
	sig := m.Sig
	if sig.SignerID != r.cfg.SignerOf(m.ShardID, m.LeaderID) || !r.sv.Verify(m.Payload(), &sig) {
		return
	}
	// Validate the election proof: 4f+1 distinct ballots with matching
	// view, and the proposed decision must be their majority. The ballot
	// signatures fan across the verify pool after the cheap field pass.
	seen := make(map[int32]bool)
	commits := 0
	for i := range m.Elects {
		e := &m.Elects[i]
		if e.TxID != m.TxID || e.ShardID != m.ShardID || e.View != m.View || seen[e.ReplicaID] {
			return
		}
		if e.Sig.SignerID != r.cfg.SignerOf(e.ShardID, e.ReplicaID) {
			return
		}
		seen[e.ReplicaID] = true
		if e.Decision == types.DecisionCommit {
			commits++
		}
	}
	if len(seen) < r.qc.ElectQuorum() {
		return
	}
	if !r.pool.All(len(m.Elects), func(i int) bool {
		esig := m.Elects[i].Sig
		return r.sv.Verify(m.Elects[i].Payload(), &esig)
	}) {
		return
	}
	major := types.DecisionAbort
	if commits*2 > len(seen) {
		major = types.DecisionCommit
	}
	if major != m.Decision {
		return
	}

	// Resurrection guard: a DecFB carries no timestamp, so only the
	// proven-outcome verdict applies — a collected transaction the store
	// already finalized has nothing left to reconcile, and no interested
	// clients are pinned to the vanished state.
	if r.peekTx(m.TxID) == nil {
		if _, done := r.store.FinalizedOutcome(m.TxID); done {
			return
		}
	}

	t := r.tx(m.TxID)
	t.mu.Lock()
	if _, ok := r.provenLocked(t); ok {
		t.mu.Unlock()
		return // finalized since the check above
	}
	if t.viewCurrent > m.View {
		t.mu.Unlock()
		return // stale proposal from an older view
	}
	prevDec, prevLogged, prevViewDec := t.decision, t.decisionLogged, t.viewDecision
	t.viewCurrent = m.View
	t.decision = m.Decision
	t.decisionLogged = true
	t.viewDecision = m.View
	// A DecFB is replica-to-replica traffic with no carrier context.
	if !r.logDecisionLocked(t, types.TraceContext{}) {
		t.decision, t.decisionLogged, t.viewDecision = prevDec, prevLogged, prevViewDec
		t.mu.Unlock()
		return
	}
	if !t.finalized {
		r.markLive(t)
	}
	for addr, reqID := range t.interested.m {
		r.replyLoggedDecisionST2Locked(addr, reqID, t)
	}
	t.mu.Unlock()
}
