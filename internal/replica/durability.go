package replica

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"repro/internal/types"
	"repro/internal/wal"
)

// Durability (WAL integration).
//
// The safety argument assumes a replica remembers what it promised: a
// stage-1 vote or a logged ST2 decision it replied with must survive a
// restart, or an honest-but-crashed replica becomes indistinguishable
// from an equivocating Byzantine one. Three record types capture exactly
// the externalized promises:
//
//	vote     — the fixed stage-1 vote plus the transaction metadata
//	           (commit votes also reinstate the prepared set on replay)
//	decision — the logged ST2 decision and its view
//	final    — a proven writeback (decision + certificate)
//
// Discipline: every record is durably appended (group-committed fsync)
// BEFORE the reply it justifies is sent; the append happens inside the
// same txState critical section that fixes the state, so no concurrent
// reader can observe-and-reply ahead of the disk. If an append ever
// fails, the replica goes mute (walFailed) — fail-stop, never
// fail-equivocate.
//
// Restart: Restore replays the newest checkpoint (store snapshot + the
// replica's per-transaction promises) and the log suffix. Prepared
// entries without a durably logged vote are withdrawn — the vote was
// never sent, so re-running the check later is safe — and the store's
// RTS floor is raised to the largest replayed timestamp, a conservative
// stand-in for the RTS entries a crash erases (writers below it abort;
// the reads they could have invalidated may still be in flight).

// WAL record tags.
const (
	walRecVote     = 1
	walRecDecision = 2
	walRecFinal    = 3
)

// logVoteLocked durably appends t's fixed vote. Caller holds t.mu; the
// group-commit wait happens under it, stalling only this transaction's
// traffic for at most two fsyncs (the one in flight, then the one that
// covers this record). Returns false (and mutes the replica) if the
// record could not be made durable.
func (r *Replica) logVoteLocked(t *txState, tc types.TraceContext) bool {
	if r.wal == nil {
		return true
	}
	b := make([]byte, 0, 256)
	b = append(b, walRecVote)
	b = append(b, t.id[:]...)
	b = append(b, byte(t.vote))
	b = walMetaOpt(b, t.meta)
	return r.walAppend(b, tc)
}

// logDecisionLocked durably appends t's logged ST2 decision. Caller
// holds t.mu.
func (r *Replica) logDecisionLocked(t *txState, tc types.TraceContext) bool {
	if r.wal == nil {
		return true
	}
	b := make([]byte, 0, 256)
	b = append(b, walRecDecision)
	b = append(b, t.id[:]...)
	b = append(b, byte(t.decision))
	b = binary.BigEndian.AppendUint64(b, t.viewDecision)
	b = walMetaOpt(b, t.meta)
	return r.walAppend(b, tc)
}

// logFinal durably appends a proven decision before it is applied.
func (r *Replica) logFinal(id types.TxID, meta *types.TxMeta, dec types.Decision, cert *types.DecisionCert, tc types.TraceContext) bool {
	if r.wal == nil {
		return true
	}
	b := make([]byte, 0, 512)
	b = append(b, walRecFinal)
	b = append(b, id[:]...)
	b = append(b, byte(dec))
	b = walMetaOpt(b, meta)
	b = types.AppendDecisionCert(b, cert)
	return r.walAppend(b, tc)
}

// walAppend appends one record, muting the replica on failure: state may
// then be ahead of disk, but nothing further externalizes it. A sampled
// trace context gets a span covering the append plus its group-commit
// fsync wait. Muting dumps the flight recorder to stderr — the replica's
// last act, so the cause survives even when nobody scrapes
// /debug/flightrec before the restart.
func (r *Replica) walAppend(rec []byte, tc types.TraceContext) bool {
	wStart := r.tracer.Start(tc)
	//nolint:basilvet — deliberate design (package doc, "locking"): promise records append under the owning transaction's t.mu so log-before-externalize holds per transaction; the group-commit wait stalls only that transaction, and t.mu is a leaf below no store or r.mu acquisition.
	err := r.wal.Append(rec)
	r.tracer.End(tc, r.traceNode, "replica.wal_append", 0, wStart)
	if err != nil {
		r.walFailed.Store(true)
		r.frec.Note("mute", "wal append failed: "+err.Error())
		r.frec.Dump(os.Stderr)
		return false
	}
	return true
}

func walMetaOpt(b []byte, m *types.TxMeta) []byte {
	if m == nil {
		return append(b, 0)
	}
	return m.AppendCanonical(append(b, 1))
}

// replay rebuilds protocol state from what Open recovered. It runs
// before the replica is registered on the network, so no locks contend.
func (r *Replica) replay(recov *wal.Recovered) error {
	var maxTs types.Timestamp
	bump := func(ts types.Timestamp) {
		if maxTs.Less(ts) {
			maxTs = ts
		}
	}
	if len(recov.Snapshot) > 0 {
		rest, m, err := r.store.Restore(recov.Snapshot)
		if err != nil {
			return err
		}
		bump(m)
		if err := r.restoreTxSection(rest); err != nil {
			return err
		}
	}
	for i, raw := range recov.Records {
		ts, err := r.applyRecord(raw)
		if err != nil {
			return fmt.Errorf("replica: wal record %d: %w", i, err)
		}
		bump(ts)
	}
	// Withdraw prepared entries with no durably logged vote: the check
	// passed pre-crash but the vote never reached disk, hence was never
	// sent — a fresh ST1 may safely re-run the check from scratch.
	for _, id := range r.store.PreparedIDs() {
		t := r.peekTx(id)
		if t == nil {
			r.store.RemovePrepared(id)
			continue
		}
		t.mu.Lock()
		unpromised := !t.voteReady && !t.decisionLogged
		if unpromised {
			t.checkStarted = false
		}
		t.mu.Unlock()
		if unpromised {
			r.store.RemovePrepared(id)
		}
	}
	r.store.SetRTSFloor(maxTs)
	return nil
}

// applyRecord replays one WAL record, returning the largest timestamp it
// carries (for the restart RTS floor). Records are idempotent against
// the snapshot: the checkpoint rotates first and snapshots second, so
// the kept suffix may overlap state already restored.
func (r *Replica) applyRecord(raw []byte) (types.Timestamp, error) {
	if len(raw) < 1+32+1 {
		return types.Timestamp{}, types.ErrTruncated
	}
	tag := raw[0]
	var id types.TxID
	copy(id[:], raw[1:33])
	rest := raw[33:]
	var ts types.Timestamp

	switch tag {
	case walRecVote:
		vote := types.Vote(rest[0])
		meta, _, err := walDecodeMetaOpt(rest[1:])
		if err != nil {
			return ts, err
		}
		if meta != nil {
			ts = meta.Timestamp
		}
		t := r.tx(id)
		t.mu.Lock()
		if t.meta == nil {
			t.meta = meta
		}
		if !t.voteReady {
			t.checkStarted = true
			t.vote = vote
			//nolint:basilvet — replay path: this promise flag is being rebuilt FROM the WAL record just read, so the append already happened (in the crashed run); re-appending here would duplicate it.
			t.voteReady = true
			r.markLive(t)
			if vote == types.VoteCommit && meta != nil {
				r.store.RestorePrepared(meta, id)
			}
		}
		t.mu.Unlock()

	case walRecDecision:
		if len(rest) < 1+8 {
			return ts, types.ErrTruncated
		}
		dec := types.Decision(rest[0])
		view := binary.BigEndian.Uint64(rest[1:9])
		meta, _, err := walDecodeMetaOpt(rest[9:])
		if err != nil {
			return ts, err
		}
		if meta != nil {
			ts = meta.Timestamp
		}
		t := r.tx(id)
		t.mu.Lock()
		if t.meta == nil {
			t.meta = meta
		}
		// Records replay in append order; the last logged decision (the
		// highest view adopted pre-crash) wins, exactly as it did live.
		t.decision = dec
		t.decisionLogged = true
		t.viewDecision = view
		if t.viewCurrent < view {
			t.viewCurrent = view
		}
		r.markLive(t)
		t.mu.Unlock()

	case walRecFinal:
		dec := types.Decision(rest[0])
		meta, after, err := walDecodeMetaOpt(rest[1:])
		if err != nil {
			return ts, err
		}
		cert, _, err := types.DecodeDecisionCert(after)
		if err != nil {
			return ts, err
		}
		if meta != nil {
			ts = meta.Timestamp
		}
		r.store.Finalize(id, meta, dec, cert)
		// Replay rebuilds only un-collected state: no txState is created
		// for a bare final record — the outcome lives in the store, and
		// any late duplicate is served from there (lifecycle.go). A state
		// rebuilt by earlier vote/decision records is marked finalized and
		// leaves the live capture index.
		if t := r.peekTx(id); t != nil {
			t.mu.Lock()
			if t.meta == nil {
				t.meta = meta
			}
			t.finalized = true
			if !t.voteReady {
				t.checkStarted = true
				t.vote = types.VoteCommit
				if dec == types.DecisionAbort {
					t.vote = types.VoteAbort
				}
				t.voteReady = true
			}
			t.mu.Unlock()
			r.unmarkLive(id)
		}

	default:
		return ts, fmt.Errorf("unknown record tag %d", tag)
	}
	return ts, nil
}

func walDecodeMetaOpt(b []byte) (*types.TxMeta, []byte, error) {
	if len(b) < 1 {
		return nil, nil, types.ErrTruncated
	}
	if b[0] == 0 {
		return nil, b[1:], nil
	}
	return types.DecodeTxMeta(b[1:])
}

// --- checkpointing ---

// Checkpoint garbage-collects store history and finished protocol state
// below the watermark and — when the replica is durable — writes a
// snapshot superseding the log so far; replay becomes snapshot + suffix.
// The watermark must trail every timestamp still in flight (see store.GC);
// the periodic loop uses now − 2δ. On an in-memory replica only the GC
// and the txState collection run.
//
// Order matters: the collect watermark is published first, so from that
// point every below-watermark message for an unknown transaction is
// answered from the store's finalized table or dropped (lifecycle.go) —
// the state collected at the end of this pass cannot be rebuilt as
// votable in between. The watermark is clamped monotonic: a caller
// passing a lower value than an earlier pass cannot un-promise drops
// already taken.
func (r *Replica) Checkpoint(watermark types.Timestamp) error {
	var start time.Time
	if r.mx.timed {
		start = time.Now()
	}
	defer func() {
		r.mx.ckpts.Inc()
		if r.mx.timed {
			r.mx.checkpoint.Since(start)
		}
	}()
	r.mu.Lock()
	if r.collectWM.Less(watermark) {
		r.collectWM = watermark
	} else {
		watermark = r.collectWM
	}
	r.mu.Unlock()
	r.store.GC(watermark)
	if r.wal != nil {
		err := r.wal.Checkpoint(func() []byte {
			// Drain finalizes that logged their record before the rotation
			// but have not applied it to the store yet — otherwise that
			// record is pruned and the outcome misses the snapshot too. New
			// finalizes log into the kept suffix, so fuzzy capture past this
			// fence is safe (replay is idempotent).
			r.applyMu.Lock()
			r.applyMu.Unlock() //nolint:staticcheck // barrier, not a critical section
			b := r.store.Snapshot(nil)
			return r.appendTxSnapshot(b, watermark)
		})
		if err != nil {
			return err
		}
	}
	collected := r.collectBelow(watermark)
	r.frec.Note("checkpoint", fmt.Sprintf("wm=%d collected=%d", watermark.Time, collected))
	return nil
}

// txSnapVersion versions the checkpoint's replica section; v2 added the
// persisted collect watermark and live-set capture. No cross-version
// compatibility is promised: a restart on an older-format data dir fails
// loudly in restoreTxSection rather than guessing.
const txSnapVersion = 2

// appendTxSnapshot appends the replica's per-transaction promises (fixed
// votes, logged decisions, views) for transactions not yet finalized —
// finalized outcomes live in the store section. The walk covers the live
// index, not all of txs, so capture cost and r.mu hold time are
// proportional to transactions still holding an unfinalized promise, not
// to history. The capture is fuzzy against concurrent handlers, which is
// safe: anything promised after the checkpoint's rotation is also in the
// kept log suffix, and replay is idempotent across the overlap.
func (r *Replica) appendTxSnapshot(b []byte, wm types.Timestamp) []byte {
	r.mu.Lock()
	states := make([]*txState, 0, len(r.live))
	for _, t := range r.live {
		states = append(states, t)
	}
	r.mu.Unlock()

	b = append(b, txSnapVersion)
	b = binary.BigEndian.AppendUint64(b, wm.Time)
	b = binary.BigEndian.AppendUint64(b, wm.ClientID)

	var body []byte
	n := 0
	for _, t := range states {
		t.mu.Lock()
		keep := (t.voteReady || t.decisionLogged) && !t.finalized
		if keep {
			body = append(body, t.id[:]...)
			var flags byte
			if t.voteReady {
				flags |= 1
			}
			if t.decisionLogged {
				flags |= 2
			}
			body = append(body, flags, byte(t.vote), byte(t.decision))
			body = binary.BigEndian.AppendUint64(body, t.viewDecision)
			body = binary.BigEndian.AppendUint64(body, t.viewCurrent)
			body = walMetaOpt(body, t.meta)
			n++
		}
		t.mu.Unlock()
	}
	b = binary.BigEndian.AppendUint32(b, uint32(n))
	return append(b, body...)
}

// restoreTxSection rebuilds txStates from a checkpoint's replica section
// and restores the collect watermark, so a restarted replica keeps the
// stale-drop guarantee for everything collected pre-crash.
func (r *Replica) restoreTxSection(b []byte) error {
	if len(b) < 1+16+4 {
		return types.ErrTruncated
	}
	if b[0] != txSnapVersion {
		return fmt.Errorf("replica: checkpoint tx section version %d, want %d", b[0], txSnapVersion)
	}
	wm := types.Timestamp{
		Time:     binary.BigEndian.Uint64(b[1:9]),
		ClientID: binary.BigEndian.Uint64(b[9:17]),
	}
	r.mu.Lock()
	if r.collectWM.Less(wm) {
		r.collectWM = wm
	}
	r.mu.Unlock()
	n := int(binary.BigEndian.Uint32(b[17:21]))
	b = b[21:]
	for i := 0; i < n; i++ {
		if len(b) < 32+3+16 {
			return types.ErrTruncated
		}
		var id types.TxID
		copy(id[:], b)
		flags, vote, dec := b[32], types.Vote(b[33]), types.Decision(b[34])
		viewDec := binary.BigEndian.Uint64(b[35:])
		viewCur := binary.BigEndian.Uint64(b[43:])
		meta, rest, err := walDecodeMetaOpt(b[51:])
		if err != nil {
			return err
		}
		b = rest
		t := r.tx(id)
		t.mu.Lock()
		t.meta = meta
		if flags&1 != 0 {
			t.checkStarted = true
			t.vote = vote
			//nolint:basilvet — replay path: promises here are rebuilt from the checkpoint's tx section, which was only written after the records behind it were durable; no new promise is being made.
			t.voteReady = true
		}
		if flags&2 != 0 {
			t.decision = dec
			t.decisionLogged = true
		}
		t.viewDecision = viewDec
		t.viewCurrent = viewCur
		r.markLive(t)
		t.mu.Unlock()
	}
	return nil
}

// checkpointLoop checkpoints every cfg.CheckpointEvery, with the
// watermark trailing the clock by 2δ — below any timestamp admission
// could still accept and any in-flight transaction could still carry.
func (r *Replica) checkpointLoop() {
	defer r.ckptWG.Done()
	tick := time.NewTicker(r.cfg.CheckpointEvery)
	defer tick.Stop()
	for {
		select {
		case <-r.ckptStop:
			return
		case <-tick.C:
			now := r.cfg.Clock.NowMicros()
			margin := 2 * r.cfg.DeltaMicros
			if now <= margin {
				continue
			}
			if err := r.Checkpoint(types.Timestamp{Time: now - margin}); err != nil && err != wal.ErrClosed {
				r.walFailed.Store(true)
				r.frec.Note("mute", "checkpoint failed: "+err.Error())
				r.frec.Dump(os.Stderr)
				return
			}
		}
	}
}

// WALStats exposes the append/sync counters (observability; nil-safe).
func (r *Replica) WALStats() wal.Stats {
	if r.wal == nil {
		return wal.Stats{}
	}
	return r.wal.StatsSnapshot()
}
