package replica

import (
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/types"
)

// Transaction-state lifecycle.
//
// A txState moves active → finalized → collectable. Active states can
// still change protocol outcome (a check may run, a vote or decision may
// be logged); finalized states only re-serve a proven outcome; collectable
// states sit below the checkpoint watermark — which promises nothing at or
// below it will ever be read, prepared, or recovered again (store.GC) —
// with every waiter answered, so the checkpoint pass deletes them from
// Replica.txs (collectBelow). A state finalized with its decision
// certificate does not wait for the watermark: finalize deletes it as
// soon as its waiters are answered, because the store then proves the
// outcome to every later request. Replica memory is thereby O(live
// transactions), not O(history).
//
// The removal is safe only because resurrection is guarded: a late
// duplicate ST1/recovery/writeback for a collected transaction finds no
// state, and lifecycleCheck answers it from the store's finalized table
// (which store.GC retains for live writers) or drops it when it is below
// the watermark with no provable outcome — it never re-runs the MVTSO
// check, which could contradict the vote whose state is gone. A request
// that passed lifecycleCheck just before a finalize collected the state
// meets the same table again under the state's lock (provenLocked), so
// no handler votes, logs a decision or counts a ballot into a state that
// has forgotten what this replica already promised.

// txPhase is a txState's lifecycle phase, derived (not stored) by
// phaseLocked from the flags the protocol already maintains.
type txPhase uint8

const (
	txActive txPhase = iota
	txFinalized
	txCollectable
)

// phaseLocked classifies t against the collect watermark wm and its store
// status st. Caller holds t.mu (store reads are lock-order leaves, so st
// may be sampled before or under it).
//
// Never collectable: states at or above the watermark, states whose MVTSO
// check is in flight (checkStarted without a promise), and prepared-but-
// undecided transactions — dependents and blocked clients still need their
// decision, and store.GC never collects prepared writes either.
func (t *txState) phaseLocked(wm types.Timestamp, st store.TxStatus) txPhase {
	promised := t.voteReady || t.decisionLogged
	if t.meta == nil {
		// No metadata means no timestamp to compare: these are ballot-only
		// or ghost states (ElectFB traffic for transactions this replica
		// never saw). Promise-free ones are collectable at any watermark —
		// dropping in-flight election ballots is self-healing (clients
		// re-invoke the fallback) and the alternative is unbounded memory
		// for unattributable spam.
		if !promised && !t.checkStarted && !t.finalized {
			return txCollectable
		}
		if t.finalized {
			return txFinalized
		}
		return txActive
	}
	below := t.meta.Timestamp.Less(wm)
	switch {
	case t.finalized:
		if below {
			return txCollectable
		}
		return txFinalized
	case !below:
		return txActive
	case st == store.StatusPrepared:
		return txActive
	case t.checkStarted && !promised:
		return txActive
	default:
		return txCollectable
	}
}

// maxTxWaiters caps each per-transaction waiter set. One entry per client
// address costs ~32 bytes; without a cap a Byzantine client herd can tie
// replica memory to the number of addresses it invents, long before the
// watermark collector applies. 64 covers every honest configuration (one
// entry per concurrently-retrying client of one transaction).
const maxTxWaiters = 64

// waiterSet is a bounded addr → reqID map with insertion order: at
// capacity the oldest entry is evicted. The zero value is ready to use.
// It is guarded by the owning txState's mutex.
type waiterSet struct {
	m     map[transport.Addr]uint64
	order []transport.Addr
}

// add records addr → reqID, updating in place when addr is already
// present. Returns true when a distinct oldest entry was evicted to make
// room. An evicted client is not answered — it re-requests, exactly as it
// would after a dropped message, which the protocol already tolerates.
func (ws *waiterSet) add(addr transport.Addr, reqID uint64) bool {
	if ws.m == nil {
		ws.m = make(map[transport.Addr]uint64)
	}
	if _, ok := ws.m[addr]; ok {
		ws.m[addr] = reqID
		return false
	}
	evicted := false
	if len(ws.order) >= maxTxWaiters {
		delete(ws.m, ws.order[0])
		ws.order = ws.order[1:]
		evicted = true
	}
	ws.m[addr] = reqID
	ws.order = append(ws.order, addr)
	return evicted
}

// length returns the number of waiters held.
func (ws *waiterSet) length() int { return len(ws.m) }

// take returns the current entries and resets the set.
func (ws *waiterSet) take() map[transport.Addr]uint64 {
	m := ws.m
	ws.m = nil
	ws.order = nil
	return m
}

// addWaiterLocked records addr in ws (a waiter set of a txState whose
// mutex the caller holds), counting cap evictions.
func (r *Replica) addWaiterLocked(ws *waiterSet, addr transport.Addr, reqID uint64) {
	if ws.add(addr, reqID) {
		r.Stats.WaiterEvictions.Add(1)
	}
}

// markLive indexes t as checkpoint-capture relevant (it holds an
// unfinalized promise). Called at every promise flip, usually under t.mu —
// taking Replica.mu under a txState mutex is the documented lock order.
// Re-inserting into txs also heals the benign race where the collector
// removed a promise-free state between a handler's map lookup and its
// promise flip.
func (r *Replica) markLive(t *txState) {
	r.mu.Lock()
	if r.txs[t.id] == nil {
		r.txs[t.id] = t
	}
	r.live[t.id] = t
	r.mu.Unlock()
}

// unmarkLive drops id from the live index once finalized: the outcome is
// in the store section of every future checkpoint, so the replica section
// no longer needs the state.
func (r *Replica) unmarkLive(id types.TxID) {
	r.mu.Lock()
	delete(r.live, id)
	r.mu.Unlock()
}

// dropTx deletes t from txs and the live index if the map still holds
// this t: a handler may have raced a fresh state for the same id in, and
// only the object the caller classified may go. Reports whether it did.
func (r *Replica) dropTx(t *txState) bool {
	r.mu.Lock()
	dropped := r.txs[t.id] == t
	if dropped {
		delete(r.txs, t.id)
		delete(r.live, t.id)
	}
	r.mu.Unlock()
	return dropped
}

// provenLocked returns the store's certified outcome for t's transaction
// when there is one. Every handler that can vote, log a decision or take
// a ballot calls it under t.mu after r.tx, and answers from the returned
// record instead: lifecycleCheck ran before r.tx, so a writeback may have
// finalized and collected the transaction in between, and t is then
// either the collected state or a fresh one that knows nothing of the
// vote or decision this replica already logged. A fresh state is dropped
// again; anything with a promise, a waiter or a ballot is left for the
// finalize that owns it.
func (r *Replica) provenLocked(t *txState) (store.TxRecord, bool) {
	rec, ok := r.store.FinalizedOutcome(t.id)
	if !ok || rec.Cert == nil {
		return store.TxRecord{}, false
	}
	if !t.checkStarted && !t.voteReady && !t.decisionLogged && !t.finalized &&
		t.voteWaiters.length() == 0 && t.interested.length() == 0 && t.ballots == nil {
		r.dropTx(t)
	}
	return rec, true
}

// TxStateCount returns the number of per-transaction protocol states held
// (the basil_replica_txstates gauge; the fuzz batteries bound it by the
// prepared set after the watermark passes all traffic).
func (r *Replica) TxStateCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.txs)
}

// lifecycleOutcome is lifecycleCheck's verdict for an incoming message.
type lifecycleOutcome uint8

const (
	// lifecycleLive: protocol state exists, or the transaction is new and
	// above the watermark — take the normal protocol path.
	lifecycleLive lifecycleOutcome = iota
	// lifecycleServed: the state was collected (or never built) but the
	// store still proves the outcome — answer from the returned record.
	lifecycleServed
	// lifecycleStale: below the collect watermark with no provable
	// outcome — drop. Re-admitting it would re-run the MVTSO check against
	// GC-truncated history and could contradict the vote whose state is
	// gone (the resurrection bug class).
	lifecycleStale
)

// lifecycleCheck classifies a message about id carrying timestamp ts
// against the collected-state lifecycle. It takes only Replica.mu (one
// acquisition) plus a store read.
func (r *Replica) lifecycleCheck(id types.TxID, ts types.Timestamp) (store.TxRecord, lifecycleOutcome) {
	r.mu.Lock()
	known := r.txs[id] != nil
	wm := r.collectWM
	r.mu.Unlock()
	if known {
		return store.TxRecord{}, lifecycleLive
	}
	if rec, ok := r.store.FinalizedOutcome(id); ok {
		return rec, lifecycleServed
	}
	if !wm.IsZero() && ts.Less(wm) {
		r.Stats.StaleDrops.Add(1)
		return store.TxRecord{}, lifecycleStale
	}
	return store.TxRecord{}, lifecycleLive
}

// serveFinalized answers a late duplicate with the store-proven outcome:
// an RPCert ST1Reply. Certificates are self-authenticating, so there is no
// signing round and nothing is promised — the record was logged (final
// record) before the outcome ever externalized. Returns false when the
// record carries no certificate; the caller then falls back to the normal
// path, which derives a vote from the final status rather than re-running
// the check.
func (r *Replica) serveFinalized(to transport.Addr, reqID uint64, rec store.TxRecord) bool {
	if rec.Cert == nil {
		return false
	}
	r.send(to, &types.ST1Reply{
		ReqID: reqID, TxID: rec.Cert.TxID, ShardID: r.cfg.Shard, ReplicaID: r.cfg.Index,
		RPKind: types.RPCert, Ev: &types.ST1Evidence{Cert: rec.Cert, CertMeta: rec.Meta},
	})
	return true
}

// collectBelow reclaims protocol state below the watermark: every
// candidate in txCollectable phase with its waiter sets empty — after a
// last notification round — is deleted from txs and live. Returns the
// number collected.
//
// Waiters on a collectable state are answered or dropped, never silently
// retained: vote waiters flush when the vote is ready, interested clients
// get the certificate when the store still proves it, and what cannot be
// answered is discarded — below the watermark the outcome will never
// change again, so state held for a reply that can never improve is pure
// leak. Sends happen after every lock is released (transport calls block).
func (r *Replica) collectBelow(wm types.Timestamp) int {
	if wm.IsZero() {
		return 0
	}
	r.mu.Lock()
	cands := make([]*txState, 0, len(r.txs))
	for _, t := range r.txs {
		cands = append(cands, t)
	}
	r.mu.Unlock()

	type notice struct {
		addr  transport.Addr
		reply *types.ST1Reply
	}
	var notify []notice
	collected := 0
	for _, t := range cands {
		st := r.store.TxStatusOf(t.id)
		t.mu.Lock()
		if t.phaseLocked(wm, st) != txCollectable {
			// Prepared-but-undecided below the watermark stays resident
			// (its write still aborts future readers, so the state must
			// survive GC) — but the owner had 2δ to finish and did not:
			// the canonical dependency-hostage pattern. Charge the
			// abandonment now, once, without collecting; recovery can
			// still resolve the transaction later.
			if st == store.StatusPrepared && t.voteReady && !t.finalized &&
				t.vote == types.VoteCommit && t.meta != nil &&
				t.meta.Timestamp.Less(wm) && !t.abandonCharged {
				t.abandonCharged = true
				r.adm.noteAbandoned(t.meta.Timestamp.ClientID)
				r.frec.Note("reputation", "abandon charged (prepared past watermark)")
			}
			t.mu.Unlock()
			continue
		}
		if t.voteReady && !t.finalized && t.vote == types.VoteCommit && t.meta != nil && !t.abandonCharged {
			// Prepared here, never finished anywhere we can see: the owner
			// abandoned it past the watermark (held locks hostage until GC).
			t.abandonCharged = true
			r.adm.noteAbandoned(t.meta.Timestamp.ClientID)
			r.frec.Note("reputation", "abandon charged (collected unfinished)")
		}
		r.flushVoteWaitersLocked(t) // answers iff the vote resolved
		t.voteWaiters.take()
		if t.interested.length() > 0 {
			rec, ok := r.store.FinalizedOutcome(t.id)
			for addr, reqID := range t.interested.take() {
				if !ok || rec.Cert == nil {
					continue
				}
				notify = append(notify, notice{addr: addr, reply: &types.ST1Reply{
					ReqID: reqID, TxID: t.id, ShardID: r.cfg.Shard, ReplicaID: r.cfg.Index,
					RPKind: types.RPCert, Ev: &types.ST1Evidence{Cert: rec.Cert, CertMeta: rec.Meta},
				}})
			}
		}
		t.mu.Unlock()

		if r.dropTx(t) {
			collected++
		}
	}
	for _, n := range notify {
		r.send(n.addr, n.reply)
	}
	if collected > 0 {
		r.Stats.TxCollected.Add(uint64(collected))
	}
	return collected
}
