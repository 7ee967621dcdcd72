package replica

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/types"
)

// Lifecycle regression tests: watermark collection, the resurrection
// guard (late duplicates for collected transactions re-serve the store's
// finalized outcome), and the waiter-set cap.

// TestWaiterSetCapEvictsOldest pins the waiterSet contract directly:
// update-in-place for a repeated address, evict-oldest at capacity.
func TestWaiterSetCapEvictsOldest(t *testing.T) {
	var ws waiterSet
	for i := 0; i < maxTxWaiters; i++ {
		if ws.add(transport.ClientAddr(int32(i)), uint64(i)) {
			t.Fatalf("eviction below capacity at %d", i)
		}
	}
	// Re-adding an existing address updates in place, no eviction.
	if ws.add(transport.ClientAddr(3), 99) {
		t.Fatal("update-in-place evicted")
	}
	if ws.length() != maxTxWaiters || ws.m[transport.ClientAddr(3)] != 99 {
		t.Fatalf("length=%d reqID=%d after update", ws.length(), ws.m[transport.ClientAddr(3)])
	}
	// One past capacity: the oldest entry (addr 0) goes.
	if !ws.add(transport.ClientAddr(1000), 1) {
		t.Fatal("no eviction at capacity")
	}
	if ws.length() != maxTxWaiters {
		t.Fatalf("length=%d after eviction, want %d", ws.length(), maxTxWaiters)
	}
	if _, still := ws.m[transport.ClientAddr(0)]; still {
		t.Fatal("oldest entry survived eviction")
	}
}

// TestVoteWaiterCapBoundsMemory is the failing-before test for the waiter
// cap: a herd of distinct client addresses hammering ST1 for one
// vote-deferred transaction used to grow t.voteWaiters without bound; now
// the set is capped with evictions counted.
func TestVoteWaiterCapBoundsMemory(t *testing.T) {
	r, net := newTestReplica(t, 1)
	defer net.Close()
	defer r.Close()
	client, st1, _ := captureClient(net, 9)

	// D: prepared with a commit vote; X depends on D, so X's vote defers
	// and every duplicate ST1 for X queues as a vote waiter.
	mD := st1For("d", 10)
	idD := mD.Meta.ID()
	r.Deliver(client, mD)
	awaitReply(t, st1, idD)
	metaX := &types.TxMeta{
		Timestamp: types.Timestamp{Time: 20, ClientID: 9},
		WriteSet:  []types.WriteEntry{{Key: "x", Value: []byte("v")}},
		Deps:      []types.Dependency{{TxID: idD, Version: mD.Meta.Timestamp}},
		Shards:    []int32{0},
	}
	idX := metaX.ID()
	herd := 2 * maxTxWaiters
	for i := 0; i < herd; i++ {
		r.Deliver(transport.ClientAddr(int32(100+i)), &types.ST1Request{
			ReqID: uint64(i + 1), ClientID: uint64(100 + i), Meta: metaX,
		})
	}
	waitFor(t, func() bool { return r.Stats.WaiterEvictions.Load() >= uint64(herd-maxTxWaiters) })
	tx := r.peekTx(idX)
	tx.mu.Lock()
	n := tx.voteWaiters.length()
	tx.mu.Unlock()
	if n > maxTxWaiters {
		t.Fatalf("voteWaiters grew to %d, cap is %d", n, maxTxWaiters)
	}
}

// TestCollectedDuplicateServedFromStore is the resurrection-bug
// regression: after the watermark passes a finalized transaction and its
// txState is collected, a late duplicate ST1 must be answered with the
// finalized outcome from the store (RPCert) and must NOT rebuild votable
// protocol state.
func TestCollectedDuplicateServedFromStore(t *testing.T) {
	r, net := newTestReplica(t, 1)
	defer net.Close()
	defer r.Close()
	client, st1, _ := captureClient(net, 9)

	m := st1For("k", 10)
	id := m.Meta.ID()
	r.Deliver(client, m)
	if rep := awaitReply(t, st1, id); rep.Vote != types.VoteCommit {
		t.Fatalf("setup vote: %v", rep.Vote)
	}
	cert := &types.DecisionCert{TxID: id, Decision: types.DecisionCommit}
	r.finalize(id, m.Meta, types.DecisionCommit, cert, types.TraceContext{})

	if err := r.Checkpoint(types.Timestamp{Time: 1000}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if n := r.TxStateCount(); n != 0 {
		t.Fatalf("txStates after collect = %d, want 0", n)
	}

	// Late duplicate: outcome re-served from the store's finalized table.
	r.Deliver(client, &types.ST1Request{ReqID: 7, ClientID: 9, Meta: m.Meta})
	rep := awaitReply(t, st1, id)
	if rep.RPKind != types.RPCert || rep.Evidence().Cert == nil || rep.Evidence().Cert.Decision != types.DecisionCommit {
		t.Fatalf("late duplicate got %v (cert=%v), want RPCert commit", rep.RPKind, rep.Evidence().Cert)
	}
	if r.peekTx(id) != nil {
		t.Fatal("late duplicate resurrected a txState")
	}

	// Same guard on the recovery and fallback entry points.
	r.Deliver(client, &types.ST1Request{ReqID: 8, ClientID: 9, Meta: m.Meta, Recovery: true})
	if rep := awaitReply(t, st1, id); rep.RPKind != types.RPCert || rep.Evidence().Cert == nil {
		t.Fatalf("recovery duplicate got %v, want RPCert", rep.RPKind)
	}
	r.Deliver(client, &types.InvokeFB{ReqID: 9, ClientID: 9, TxID: id, Meta: m.Meta})
	if rep := awaitReply(t, st1, id); rep.RPKind != types.RPCert || rep.Evidence().Cert == nil {
		t.Fatalf("InvokeFB duplicate got %v, want RPCert", rep.RPKind)
	}
	if r.peekTx(id) != nil {
		t.Fatal("recovery path resurrected a txState")
	}
}

// TestStaleBelowWatermarkDropped: a below-watermark request for a
// transaction with no provable outcome (its history was GC-truncated, or
// it never existed) is dropped, not re-checked — re-running the MVTSO
// check against truncated history could contradict a collected vote.
func TestStaleBelowWatermarkDropped(t *testing.T) {
	r, net := newTestReplica(t, 1)
	defer net.Close()
	defer r.Close()
	client, st1, _ := captureClient(net, 9)

	if err := r.Checkpoint(types.Timestamp{Time: 500}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	mStale := st1For("ghost", 100) // below the watermark, never seen
	idStale := mStale.Meta.ID()
	r.Deliver(client, mStale)
	waitFor(t, func() bool { return r.Stats.StaleDrops.Load() >= 1 })
	if r.peekTx(idStale) != nil {
		t.Fatal("stale request built protocol state")
	}

	// Liveness above the watermark is untouched.
	mLive := st1For("live", 600)
	r.Deliver(client, mLive)
	if rep := awaitReply(t, st1, mLive.Meta.ID()); rep.Vote != types.VoteCommit {
		t.Fatalf("above-watermark vote: %v", rep.Vote)
	}
}

// TestCheckpointCollectsOnlyFinishedState: the collector takes finalized
// and promise-free states below the watermark but never prepared
// (undecided) transactions, whatever their timestamp — dependents still
// need their decisions.
func TestCheckpointCollectsOnlyFinishedState(t *testing.T) {
	r, net := newTestReplica(t, 1)
	defer net.Close()
	defer r.Close()
	client, st1, _ := captureClient(net, 9)

	const finalized = 5
	for i := 0; i < finalized; i++ {
		m := st1For(fmt.Sprintf("k%d", i), uint64(10+i))
		id := m.Meta.ID()
		r.Deliver(client, m)
		awaitReply(t, st1, id)
		r.finalize(id, m.Meta, types.DecisionCommit,
			&types.DecisionCert{TxID: id, Decision: types.DecisionCommit}, types.TraceContext{})
	}
	// Finalizing with a certificate collects a state at once; one
	// finalized without a certificate stays for the checkpoint to take.
	mBare := st1For("bare", 40)
	idBare := mBare.Meta.ID()
	r.Deliver(client, mBare)
	awaitReply(t, st1, idBare)
	r.finalize(idBare, mBare.Meta, types.DecisionCommit, nil, types.TraceContext{})
	mPrep := st1For("prep", 50)
	idPrep := mPrep.Meta.ID()
	r.Deliver(client, mPrep)
	awaitReply(t, st1, idPrep)
	if r.TxStateCount() != 2 || r.peekTx(idBare) == nil {
		t.Fatalf("setup: %d states", r.TxStateCount())
	}

	if err := r.Checkpoint(types.Timestamp{Time: 1000}); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if n := r.TxStateCount(); n != 1 {
		t.Fatalf("txStates after collect = %d, want 1 (the prepared one)", n)
	}
	if r.peekTx(idBare) != nil {
		t.Fatal("checkpoint kept the finalized state")
	}
	if r.Store().TxStatusOf(idPrep) != store.StatusPrepared {
		t.Fatal("prepared transaction lost")
	}
	if got := r.Stats.TxCollected.Load(); got != finalized+1 {
		t.Fatalf("TxCollected = %d, want %d", got, finalized+1)
	}
	// The survivor still answers duplicates with its original vote.
	r.Deliver(client, &types.ST1Request{ReqID: 9, ClientID: 9, Meta: mPrep.Meta})
	if rep := awaitReply(t, st1, idPrep); rep.Vote != types.VoteCommit {
		t.Fatalf("prepared survivor vote: %v", rep.Vote)
	}
}

// TestDuplicateST1RacingWritebackCollected races a duplicate ST1 against
// the writeback that finalizes (and, with its certificate, at once
// collects) the transaction. Whichever wins, the duplicate must get the
// vote this replica already promised or the decision's certificate —
// never a vote from a re-run check — and no state may stay in txs. A
// second mode races the writeback against the first ST1 this replica
// sees, with a commit decision that any honest vote agrees with. Run it
// under -race with -count=10 (make test-race does).
func TestDuplicateST1RacingWritebackCollected(t *testing.T) {
	r, net := newTestReplica(t, 1)
	defer net.Close()
	defer r.Close()
	client := transport.ClientAddr(9)
	replies := make(chan *types.ST1Reply, 64)
	net.Register(client, transport.HandlerFunc(func(_ transport.Addr, msg any) {
		if rep, ok := msg.(*types.ST1Reply); ok {
			replies <- rep
		}
	}))
	await := func(id types.TxID, reqID uint64) *types.ST1Reply {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			select {
			case rep := <-replies:
				if rep.TxID == id && rep.ReqID == reqID {
					return rep
				}
			case <-deadline:
				t.Fatalf("no ST1 reply %d for %x", reqID, id[:4])
			}
		}
	}

	const rounds = 100
	for i := 0; i < rounds; i++ {
		fresh := i%3 == 2
		dec := types.DecisionCommit
		if i%3 == 1 {
			dec = types.DecisionAbort
		}
		m := st1For(fmt.Sprintf("race%d", i), uint64(10+i))
		id := m.Meta.ID()
		if !fresh {
			r.onST1(client, m)
			if rep := await(id, m.ReqID); rep.Vote != types.VoteCommit {
				t.Fatalf("round %d: setup vote %v", i, rep.Vote)
			}
		}
		dup := &types.ST1Request{ReqID: 2, ClientID: 9, Meta: m.Meta}
		cert := &types.DecisionCert{TxID: id, Decision: dec}
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(2)
		go func() {
			defer done.Done()
			start.Wait()
			r.finalize(id, m.Meta, dec, cert, types.TraceContext{})
		}()
		go func() {
			defer done.Done()
			start.Wait()
			r.onST1(client, dup)
		}()
		start.Done()
		done.Wait()

		rep := await(id, dup.ReqID)
		switch {
		case rep.RPKind == types.RPCert:
			if rep.Evidence().Cert == nil || rep.Evidence().Cert.Decision != dec {
				t.Fatalf("round %d: certificate reply %v, want decision %v", i, rep.Evidence().Cert, dec)
			}
		case rep.Vote != types.VoteCommit:
			// Every honest vote here is commit: the promised one, or a
			// fresh key's check, or one derived from a commit decision.
			t.Fatalf("round %d (fresh=%v, decision %v): duplicate got vote %v", i, fresh, dec, rep.Vote)
		}
		if r.peekTx(id) != nil {
			t.Fatalf("round %d (fresh=%v): state left in txs after the writeback", i, fresh)
		}
	}
	if n := r.TxStateCount(); n != 0 {
		t.Fatalf("%d states left after %d rounds", n, rounds)
	}
}

// TestDecisionRacingWritebackCollected races an ST2 or a fallback
// invocation that carries an abort, justified by signed abort votes,
// against the writeback that finalizes (and collects) a committed
// transaction. In the logged modes this replica has already logged the
// commit decision, so every ST2R, ballot and certificate it sends must
// carry commit: a handler that rebuilt a fresh state after the
// collection would log and sign the abort, breaking the rule that a
// correct replica never changes a logged decision within a view. In the
// vote-only modes the replica has logged nothing and the racing request
// may win with its abort, but one that reaches the state after the
// collection (its tallies are checked with no lock held) must not log
// into it or put it back. No mode may leave a state in txs. Run it
// under -race with -count=10 (make test-race does).
func TestDecisionRacingWritebackCollected(t *testing.T) {
	r, net := newTestReplica(t, 1)
	defer net.Close()
	defer r.Close()
	type sent struct {
		kind  string
		id    types.TxID
		reqID uint64 // 0 for ballots
		dec   types.Decision
	}
	out := make(chan sent, 256)
	capture := transport.HandlerFunc(func(_ transport.Addr, msg any) {
		switch m := msg.(type) {
		case *types.ST1Reply:
			switch {
			case m.RPKind == types.RPCert && m.Evidence().Cert != nil:
				out <- sent{"certificate", m.TxID, m.ReqID, m.Evidence().Cert.Decision}
			case m.RPKind == types.RPVote:
				out <- sent{"vote", m.TxID, m.ReqID, types.DecisionNone}
			}
		case *types.ST2Reply:
			out <- sent{"ST2R", m.TxID, m.ReqID, m.Decision}
		case *types.ElectFB:
			out <- sent{"ballot", m.TxID, 0, m.Decision}
		}
	})
	client := transport.ClientAddr(9)
	net.Register(client, capture)
	for i := int32(1); i < 6; i++ {
		net.Register(transport.ReplicaAddr(0, i), capture) // fallback leaders
	}
	tally := func(id types.TxID, vote types.Vote, n int32) []types.VoteTally {
		tl := types.VoteTally{TxID: id, ShardID: 0, Vote: vote}
		for i := int32(0); i < n; i++ {
			rep := types.ST1Reply{TxID: id, ShardID: 0, ReplicaID: i, Vote: vote, RPKind: types.RPVote}
			rep.Sig = types.Signature{SignerID: i, Direct: r.cfg.Registry.Signer(i).Sign(rep.Payload())}
			tl.Replies = append(tl.Replies, rep)
		}
		return []types.VoteTally{tl}
	}
	// await returns the first message for id with reqID, or a ballot for
	// id. Every message about a logged-mode transaction on the way,
	// stragglers of earlier rounds included, must carry commit.
	loggedCommit := make(map[types.TxID]bool)
	await := func(round int, id types.TxID, reqID uint64) sent {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			select {
			case s := <-out:
				if loggedCommit[s.id] && s.kind != "vote" && s.dec != types.DecisionCommit {
					t.Fatalf("round %d: %s for a logged commit carries %v", round, s.kind, s.dec)
				}
				if s.id == id && (s.reqID == reqID || s.kind == "ballot") {
					return s
				}
			case <-deadline:
				t.Fatalf("round %d: no answer %d for %x", round, reqID, id[:4])
			}
		}
	}

	modes := []struct {
		name   string
		st2    bool // race an ST2 (else an InvokeFB)
		logged bool // commit decision logged before the race (else a vote only)
	}{
		{"st2", true, true}, {"invoke-fb", false, true},
		{"st2-vote-only", true, false}, {"invoke-fb-vote-only", false, false},
	}
	const rounds = 100
	for i, ts := 0, uint64(10); i < rounds; i++ {
		mode := modes[i%len(modes)]
		var m *types.ST1Request
		for {
			// The ballot must leave this replica: pick a transaction whose
			// view-1 fallback leader is another replica.
			ts++
			m = st1For(fmt.Sprintf("dec%d", i), ts)
			if r.leaderFor(m.Meta.ID(), 1) != r.cfg.Index {
				break
			}
		}
		meta, id := m.Meta, m.Meta.ID()
		if mode.logged {
			loggedCommit[id] = true
			r.onST2(client, &types.ST2Request{ReqID: 1, ClientID: 9, TxID: id, Meta: meta,
				Decision: types.DecisionCommit, Tallies: tally(id, types.VoteCommit, 6)})
		} else {
			r.onST1(client, m)
		}
		await(i, id, 1)

		abort := tally(id, types.VoteAbort, 2)
		cert := &types.DecisionCert{TxID: id, Decision: types.DecisionCommit}
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(2)
		go func() {
			defer done.Done()
			start.Wait()
			r.finalize(id, meta, types.DecisionCommit, cert, types.TraceContext{})
		}()
		go func() {
			defer done.Done()
			start.Wait()
			if mode.st2 {
				r.onST2(client, &types.ST2Request{ReqID: 2, ClientID: 9, TxID: id, Meta: meta,
					Decision: types.DecisionAbort, Tallies: abort})
			} else {
				r.onInvokeFB(client, &types.InvokeFB{ReqID: 2, ClientID: 9, TxID: id, Meta: meta,
					Decision: types.DecisionAbort, Tallies: abort})
			}
		}()
		start.Done()
		done.Wait()

		await(i, id, 2)
		if r.peekTx(id) != nil {
			t.Fatalf("round %d (%s): state left in txs after the writeback", i, mode.name)
		}
	}
	if n := r.TxStateCount(); n != 0 {
		t.Fatalf("%d states left after %d rounds", n, rounds)
	}
}
