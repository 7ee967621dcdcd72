package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// referenceCheck is CheckAndPrepare's verdict computed the slow way, with
// the linear scans of Algorithm 1 lines 5–13 over a key's whole history
// and no reliance on either list's order. It installs nothing. fromReads
// reports that the verdict came from lines 5–8, where the evidence is
// determined (the smallest version above the read) and must match
// exactly. Call it with no concurrent mutator.
func (s *Store) referenceCheck(meta *types.TxMeta, id types.TxID) (res CheckResult, fromReads bool) {
	if s.txns[id] != nil {
		return CheckResult{Outcome: CheckDuplicate}, false
	}
	ts := meta.Timestamp
	for _, r := range meta.ReadSet {
		if !r.Version.Less(ts) {
			return CheckResult{Outcome: CheckMisbehavior}, true
		}
		e := s.stripeOf(r.Key).keys[r.Key]
		if e == nil {
			continue
		}
		var best *writeRec
		for i := range e.writes {
			w := &e.writes[i]
			if wv := w.ver(); r.Version.Less(wv) && wv.Less(ts) && (best == nil || wv.Less(best.ver())) {
				best = w
			}
		}
		if best != nil {
			res := CheckResult{Outcome: CheckAbort}
			if rec := best.writer; rec != nil {
				if best.committed() && rec.Cert != nil {
					res.Conflict, res.ConflictMeta = rec.Cert, rec.Meta
				} else if rec.Status == StatusPrepared {
					res.PreparedConflict = rec.Meta
				}
			}
			return res, true
		}
	}
	if len(meta.WriteSet) > 0 && ts.Less(s.rtsFloor) {
		return CheckResult{Outcome: CheckAbort}, false
	}
	for _, w := range meta.WriteSet {
		e := s.stripeOf(w.Key).keys[w.Key]
		if e == nil {
			continue
		}
		for i := range e.readers {
			if rd := &e.readers[i]; ts.Less(rd.readerTs()) && rd.readVer(w.Key).Less(ts) {
				return CheckResult{Outcome: CheckAbort}, false
			}
		}
		if ts.Less(e.maxRTS) {
			return CheckResult{Outcome: CheckAbort}, false
		}
	}
	return CheckResult{Outcome: CheckOK}, false
}

// checkEvidence reports an error unless the transaction res names (if
// any) genuinely conflicts with meta in the store's current state: it is
// committed with the returned certificate, or prepared, and it either
// wrote a key meta read between the read version and meta's timestamp
// (lines 7–8) or read, at a timestamp above meta's, a version of a key
// meta writes that lies below meta's timestamp (lines 10–11).
func (s *Store) checkEvidence(meta *types.TxMeta, res CheckResult) error {
	var other *types.TxMeta
	switch {
	case res.Conflict != nil:
		if res.ConflictMeta == nil || res.PreparedConflict != nil {
			return fmt.Errorf("certificate evidence with meta %v, prepared %v", res.ConflictMeta != nil, res.PreparedConflict != nil)
		}
		rec := s.txns[res.Conflict.TxID]
		if rec == nil || rec.Status != StatusCommitted || rec.Cert != res.Conflict || rec.Meta.ID() != res.Conflict.TxID {
			return fmt.Errorf("certificate evidence names %x, not a committed record with that certificate", res.Conflict.TxID[:4])
		}
		other = res.ConflictMeta
	case res.ConflictMeta != nil:
		return fmt.Errorf("conflict meta without a certificate")
	case res.PreparedConflict != nil:
		id := res.PreparedConflict.ID()
		if rec := s.txns[id]; rec == nil || rec.Status != StatusPrepared {
			return fmt.Errorf("prepared evidence names %x, which is not prepared", id[:4])
		}
		other = res.PreparedConflict
	default:
		return nil
	}
	if res.Outcome != CheckAbort {
		return fmt.Errorf("evidence returned with outcome %v", res.Outcome)
	}
	ts, ots := meta.Timestamp, other.Timestamp
	for _, r := range meta.ReadSet {
		if _, ok := writtenValue(other, r.Key); ok && r.Version.Less(ots) && ots.Less(ts) {
			return nil
		}
	}
	for _, w := range meta.WriteSet {
		if !ts.Less(ots) {
			break
		}
		if rv, ok := lowestRead(other, w.Key); ok && rv.Less(ts) {
			return nil
		}
	}
	return fmt.Errorf("evidence %v does not conflict with %v", ots, ts)
}

// lowestRead returns the lowest version meta's read set names for k.
func lowestRead(meta *types.TxMeta, k string) (v types.Timestamp, ok bool) {
	for _, r := range meta.ReadSet {
		if r.Key == k && (!ok || r.Version.Less(v)) {
			v, ok = r.Version, true
		}
	}
	return v, ok
}

// checkOrder reports an error unless every key's versions are sorted by
// version and its readers by reader timestamp.
func (s *Store) checkOrder() error {
	for si := range s.stripes {
		for k, e := range s.stripes[si].keys {
			for i := 1; i < len(e.writes); i++ {
				if e.writes[i].ver().Less(e.writes[i-1].ver()) {
					return fmt.Errorf("key %q: version %d (%v) below its predecessor", k, i, e.writes[i].ver())
				}
			}
			for i := 1; i < len(e.readers); i++ {
				if e.readers[i].readerTs().Less(e.readers[i-1].readerTs()) {
					return fmt.Errorf("key %q: reader %d (%v) below its predecessor", k, i, e.readers[i].readerTs())
				}
			}
		}
	}
	return nil
}

// checkMembership reports an error unless each transaction in txs holds,
// on every key it writes or reads, one version per write-set entry and
// one reader record per read-set entry naming that key when it is
// prepared or committed here, and none otherwise. Below the GC watermark
// committed versions and all readers may have been collected, so there
// only the absence of a dead transaction's entries is checked. Both lists
// are walked whole, independently of their order.
func (s *Store) checkMembership(txs []histTx, water types.Timestamp) error {
	for _, t := range txs {
		m, rec := t.meta, s.txns[t.id]
		live := rec != nil && (rec.Status == StatusPrepared || rec.Status == StatusCommitted)
		if live && m.Timestamp.Less(water) {
			continue
		}
		for _, w := range m.WriteSet {
			want, got := 0, 0
			if live {
				want = countFunc(m.WriteSet, func(o types.WriteEntry) bool { return o.Key == w.Key })
			}
			if e := s.stripeOf(w.Key).keys[w.Key]; e != nil && rec != nil {
				got = countFunc(e.writes, func(o writeRec) bool { return o.writer == rec })
			}
			if got != want {
				return fmt.Errorf("tx %v (live %v): %d versions on %q, want %d", m.Timestamp, live, got, w.Key, want)
			}
		}
		for _, r := range m.ReadSet {
			want, got := 0, 0
			if live {
				want = countFunc(m.ReadSet, func(o types.ReadEntry) bool { return o.Key == r.Key })
			}
			if e := s.stripeOf(r.Key).keys[r.Key]; e != nil && rec != nil {
				got = countFunc(e.readers, func(o readRec) bool { return o.reader == rec })
			}
			if got != want {
				return fmt.Errorf("tx %v (live %v): %d reader records on %q, want %d", m.Timestamp, live, got, r.Key, want)
			}
		}
	}
	return nil
}

// countFunc returns how many elements of xs satisfy f.
func countFunc[T any](xs []T, f func(T) bool) int {
	n := 0
	for _, x := range xs {
		if f(x) {
			n++
		}
	}
	return n
}

// histTx is a transaction of a reference history with its id, hashed
// once.
type histTx struct {
	meta *types.TxMeta
	id   types.TxID
}

// TestCheckMatchesReference runs seeded random histories over a few hot
// keys, mixing prepares (current, old and misbehaving, some duplicates),
// commits with and without certificates, aborts, RemovePrepared,
// RestorePrepared, writebacks that missed ST1, outstanding and dropped
// reads, snapshot round trips and GC. Every CheckAndPrepare must return
// the verdict referenceCheck computes with whole-history scans on the same
// state, and any evidence it returns must name a genuinely conflicting
// transaction; after every operation both per-key lists must be sorted
// and hold exactly the live transactions' entries.
func TestCheckMatchesReference(t *testing.T) {
	seeds, steps := 24, 1500
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runReferenceHistory(t, seed, steps)
		})
	}
}

func runReferenceHistory(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	keys := []string{"a", "b", "c", "d"}
	s := New()
	for _, k := range keys {
		s.ApplyGenesis(k, []byte("g"))
	}
	now := uint64(300)
	var (
		txs     []histTx // every transaction the store took in
		water   types.Timestamp
		outcome [4]int
	)
	// stamp draws a timestamp: mostly recent, sometimes far in the past,
	// never at or below the GC watermark (the watermark's promise).
	stamp := func() types.Timestamp {
		back := uint64(rng.Intn(8))
		if rng.Intn(5) == 0 {
			back = uint64(rng.Intn(200))
		}
		return types.Timestamp{Time: now - back, ClientID: uint64(1 + rng.Intn(4))}
	}
	// readVersion picks the version a transaction at ts claims to have
	// read from k: what Read serves (placing an RTS), some other known
	// version, or, rarely, one from the future.
	readVersion := func(k string, ts types.Timestamp) types.Timestamp {
		switch n := rng.Intn(10); {
		case n < 6:
			r := s.Read(k, ts)
			if r.Prepared != nil && rng.Intn(2) == 0 {
				return r.Prepared.WriterMeta.Timestamp
			}
			if r.Committed != nil {
				return r.Committed.Version()
			}
			return types.Timestamp{}
		case n < 9 && len(txs) > 0:
			return txs[rng.Intn(len(txs))].meta.Timestamp
		case n < 9:
			return types.Timestamp{}
		default:
			return types.Timestamp{Time: ts.Time + 1}
		}
	}
	newMeta := func() *types.TxMeta {
		m := &types.TxMeta{Timestamp: stamp(), Shards: []int32{0}}
		for n := rng.Intn(3); n > 0; n-- {
			k := keys[rng.Intn(len(keys))]
			m.ReadSet = append(m.ReadSet, types.ReadEntry{Key: k, Version: readVersion(k, m.Timestamp)})
		}
		for n := rng.Intn(3); n > 0; n-- {
			m.WriteSet = append(m.WriteSet, types.WriteEntry{Key: keys[rng.Intn(len(keys))], Value: []byte{byte(rng.Intn(256))}})
		}
		return m
	}
	pick := func(status TxStatus) (histTx, bool) {
		var cands []histTx
		for _, t := range txs {
			if s.TxStatusOf(t.id) == status {
				cands = append(cands, t)
			}
		}
		if len(cands) == 0 {
			return histTx{}, false
		}
		return cands[rng.Intn(len(cands))], true
	}
	cert := func(m *types.TxMeta) *types.DecisionCert {
		if rng.Intn(3) == 0 {
			return nil
		}
		return &types.DecisionCert{TxID: m.ID(), Decision: types.DecisionCommit}
	}

	for step := 0; step < steps; step++ {
		now += uint64(1 + rng.Intn(3))
		var op string
		switch n := rng.Intn(100); {
		case n < 45:
			op = "prepare"
			m := newMeta()
			if len(txs) > 0 && rng.Intn(10) == 0 {
				m = txs[rng.Intn(len(txs))].meta // a duplicate delivery
			}
			id := m.ID()
			want, fromReads := s.referenceCheck(m, id)
			got := s.CheckAndPrepare(m, id)
			if got.Outcome != want.Outcome {
				t.Fatalf("step %d: CheckAndPrepare(%v) = %v, reference %v", step, m.Timestamp, got.Outcome, want.Outcome)
			}
			if fromReads && got != want {
				t.Fatalf("step %d: read-conflict evidence %+v, reference %+v", step, got, want)
			}
			if got.Outcome == CheckAbort {
				if err := s.checkEvidence(m, got); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			outcome[got.Outcome]++
			if got.Outcome == CheckOK {
				txs = append(txs, histTx{m, id})
			} else if got.Outcome != CheckDuplicate && rng.Intn(2) == 0 {
				for _, r := range m.ReadSet {
					s.DropRTS([]string{r.Key}, m.Timestamp)
				}
			}
		case n < 60:
			op = "commit"
			if t, ok := pick(StatusPrepared); ok {
				s.Finalize(t.id, t.meta, types.DecisionCommit, cert(t.meta))
			}
		case n < 68:
			op = "abort"
			if t, ok := pick(StatusPrepared); ok {
				s.Finalize(t.id, t.meta, types.DecisionAbort, nil)
			}
		case n < 73:
			op = "remove-prepared"
			if t, ok := pick(StatusPrepared); ok {
				s.RemovePrepared(t.id)
			}
		case n < 78:
			op = "restore-prepared"
			m := newMeta()
			if id := m.ID(); s.RestorePrepared(m, id) {
				txs = append(txs, histTx{m, id})
			}
		case n < 83:
			op = "writeback"
			m := newMeta()
			if id := m.ID(); s.Finalize(id, m, types.DecisionCommit, cert(m)) {
				txs = append(txs, histTx{m, id})
			}
		case n < 93:
			op = "read"
			k, at := keys[rng.Intn(len(keys))], stamp()
			s.Read(k, at)
			if rng.Intn(2) == 0 {
				s.DropRTS([]string{k}, at)
			}
		case n < 97:
			op = "snapshot"
			restored := New()
			if _, _, err := restored.Restore(s.Snapshot(nil)); err != nil {
				t.Fatalf("step %d: restore: %v", step, err)
			}
			s = restored
		default:
			op = "gc"
			if w := (types.Timestamp{Time: now - 220}); water.Less(w) {
				water = w
			}
			s.GC(water)
		}
		if err := s.checkOrder(); err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
		if err := s.checkMembership(txs, water); err != nil {
			t.Fatalf("step %d (%s): %v", step, op, err)
		}
	}
	if outcome[CheckOK] == 0 || outcome[CheckAbort] == 0 || outcome[CheckMisbehavior] == 0 || outcome[CheckDuplicate] == 0 {
		t.Fatalf("history did not reach every outcome: %v", outcome)
	}
}

// TestRestoreSortsInsertionOrderReaders: a snapshot written before reader
// lists were kept sorted lists a key's readers in insertion order. Restore
// must re-sort them, or the backward scan of lines 9–13 stops at an older
// reader and misses a newer one that a writer invalidates.
func TestRestoreSortsInsertionOrderReaders(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	newer := meta(ts(50, 1), map[string]types.Timestamp{"x": {}}, map[string]string{"y": "a"})
	older := meta(ts(20, 2), map[string]types.Timestamp{"x": {}}, map[string]string{"z": "b"})
	mustPrepare(t, s, newer)
	mustPrepare(t, s, older)
	// Lay the readers out as an insertion-ordered list holds them: the
	// ts-50 reader prepared first. Snapshot writes them in list order.
	e := s.stripeOf("x").keys["x"]
	if len(e.readers) != 2 {
		t.Fatalf("x has %d readers, want 2", len(e.readers))
	}
	e.readers[0].reader, e.readers[1].reader = s.txns[newer.ID()], s.txns[older.ID()]

	restored := New()
	if _, _, err := restored.Restore(s.Snapshot(nil)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := restored.checkOrder(); err != nil {
		t.Fatalf("restored readers out of order: %v", err)
	}
	// A write at ts 30 invalidates the ts-50 read of version 0.
	w := meta(ts(30, 3), nil, map[string]string{"x": "w"})
	res := restored.CheckAndPrepare(w, w.ID())
	if res.Outcome != CheckAbort || res.PreparedConflict == nil || res.PreparedConflict.ID() != newer.ID() {
		t.Fatalf("writer below a restored newer reader: %v, evidence %v; want an abort naming the ts-50 reader", res.Outcome, res.PreparedConflict)
	}
}
