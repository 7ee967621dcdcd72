package store

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/types"
)

// TestGCRecomputesMaxRTS is the regression test for the stale-maxRTS GC
// bug: GC deleted RTS entries from e.rts but left e.maxRTS at the
// collected read's timestamp, so the coarse line-12 filter in
// CheckAndPrepare kept aborting every writer below a read timestamp that
// no longer existed. (Same class as the dropRTS fix from the PR-3
// review, on the GC path.)
func TestGCRecomputesMaxRTS(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	// An ongoing read at ts 100 raises maxRTS to 100.
	s.Read("x", ts(100, 1))
	// The read's transaction dies; much later, GC passes above it.
	if dropped := s.GC(ts(200, 0)); dropped == 0 {
		t.Fatal("GC did not collect the RTS entry")
	}
	// A writer below the collected read timestamp must now be admitted:
	// no live read exists for it to invalidate. Before the fix maxRTS
	// stayed 100 forever and this prepare aborted.
	m := meta(ts(50, 2), nil, map[string]string{"x": "v50"})
	if res := s.CheckAndPrepare(m, m.ID()); res.Outcome != CheckOK {
		t.Fatalf("writer below collected RTS aborted: %v (stale maxRTS)", res.Outcome)
	}
}

// TestGCPartialRTSKeepsMax covers the other half: when only some RTS
// entries fall below the watermark, the recomputed maxRTS must still
// dominate the survivors.
func TestGCPartialRTSKeepsMax(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	s.Read("x", ts(100, 1))
	s.Read("x", ts(300, 1))
	s.GC(ts(200, 0)) // collects the 100 read, keeps the 300 read
	// A writer below the surviving read must still be refused.
	m := meta(ts(250, 2), nil, map[string]string{"x": "v"})
	if res := s.CheckAndPrepare(m, m.ID()); res.Outcome != CheckAbort {
		t.Fatalf("writer below surviving RTS admitted: %v", res.Outcome)
	}
}

// TestGCCollectsFinalizedTxns is the regression test for the unbounded
// transaction table: GC never touched s.txns, so finalized records
// accumulated forever under sustained load. Collected records must be
// counted in the returned dropped total, and writers of still-live
// versions must be retained (Read serves their metadata and cert).
func TestGCCollectsFinalizedTxns(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	var ids []types.TxID
	for i := uint64(1); i <= 5; i++ {
		m := meta(ts(i*10, 1), nil, map[string]string{"x": fmt.Sprintf("v%d", i)})
		id := mustPrepare(t, s, m)
		s.Finalize(id, m, types.DecisionCommit, nil)
		ids = append(ids, id)
	}
	// An aborted transaction below the watermark is collectable too.
	ma := meta(ts(15, 2), nil, map[string]string{"x": "dead"})
	mustPrepare(t, s, ma)
	s.Finalize(ma.ID(), ma, types.DecisionAbort, nil)

	before := s.StatsSnapshot().Txns
	dropped := s.GC(ts(45, 0))
	after := s.StatsSnapshot().Txns
	if after >= before {
		t.Fatalf("txns table did not shrink: %d -> %d (dropped=%d)", before, after, dropped)
	}
	// v1..v3's versions are gone (v4 is the kept newest ≤ watermark), so
	// their records go; the abort goes; v4 and v5 still write live
	// versions and must stay.
	for i, id := range ids {
		_, ok := s.Tx(id)
		wantLive := i >= 3 // ids[3]=v4, ids[4]=v5
		if ok != wantLive {
			t.Fatalf("tx v%d: present=%v, want %v", i+1, ok, wantLive)
		}
	}
	if _, ok := s.Tx(ma.ID()); ok {
		t.Fatal("aborted tx below watermark survived GC")
	}
	// The retained writer still backs reads with metadata.
	r := s.Read("x", ts(100, 9))
	if r.Committed == nil || r.Committed.WriterMeta == nil {
		t.Fatal("live committed version lost its writer record")
	}
	if dropped < 4 { // ≥3 versions + ≥3 txns + abort bookkeeping
		t.Fatalf("dropped=%d suspiciously low", dropped)
	}
}

// TestSnapshotRestoreRoundTrip: a store rebuilt from its snapshot serves
// identical reads, conflict checks, and transaction lookups.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	s.ApplyGenesis("y", []byte("w0"))
	// Committed write on x.
	mc := meta(ts(10, 1), nil, map[string]string{"x": "v10"})
	mustPrepare(t, s, mc)
	s.Finalize(mc.ID(), mc, types.DecisionCommit, nil)
	// Prepared (undecided) write on y that also read x.
	mp := meta(ts(20, 2), map[string]types.Timestamp{"x": ts(10, 1)}, map[string]string{"y": "w20"})
	mustPrepare(t, s, mp)
	s.SetRTSFloor(ts(7, 0))

	snap := s.Snapshot(nil)
	snap = append(snap, 0xAA, 0xBB) // callers append their own sections

	s2 := New()
	rest, maxTs, err := s2.Restore(snap)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if len(rest) != 2 || rest[0] != 0xAA {
		t.Fatalf("rest = %x", rest)
	}
	if maxTs != ts(20, 2) {
		t.Fatalf("maxTs = %v, want %v", maxTs, ts(20, 2))
	}

	// Reads match.
	r := s2.Read("x", ts(15, 3))
	if r.Committed == nil || string(r.Committed.Value) != "v10" || r.Committed.WriterMeta == nil {
		t.Fatalf("restored committed read wrong: %+v", r.Committed)
	}
	rp := s2.Read("y", ts(30, 3))
	if rp.Prepared == nil || string(rp.Prepared.Value) != "w20" {
		t.Fatalf("restored prepared read wrong: %+v", rp.Prepared)
	}
	// The prepared transaction is still prepared; the committed one
	// committed.
	if s2.TxStatusOf(mp.ID()) != StatusPrepared || s2.TxStatusOf(mc.ID()) != StatusCommitted {
		t.Fatal("restored statuses wrong")
	}
	// Reader records survived: a write invalidating mp's read of x must
	// abort, exactly as on the original store.
	mw := meta(ts(15, 4), nil, map[string]string{"x": "invalidates"})
	if res := s2.CheckAndPrepare(mw, mw.ID()); res.Outcome != CheckAbort {
		t.Fatalf("restored reader record not enforced: %v", res.Outcome)
	}
	// The RTS floor survived: writers below it abort even with no RTS.
	mf := meta(ts(5, 5), nil, map[string]string{"zz": "below-floor"})
	if res := s2.CheckAndPrepare(mf, mf.ID()); res.Outcome != CheckAbort {
		t.Fatalf("restored RTS floor not enforced: %v", res.Outcome)
	}
	// Finalizing the restored prepared transaction works as usual.
	if !s2.Finalize(mp.ID(), mp, types.DecisionCommit, nil) {
		t.Fatal("finalize after restore did not apply")
	}
	if v, _, ok := s2.LatestCommitted("y"); !ok || v != ts(20, 2) {
		t.Fatal("commit after restore lost")
	}
}

// TestSnapshotRestoreTruncated: a torn snapshot must error, not build a
// half store.
func TestSnapshotRestoreTruncated(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	m := meta(ts(10, 1), nil, map[string]string{"x": "v10"})
	mustPrepare(t, s, m)
	snap := s.Snapshot(nil)
	for _, cut := range []int{1, len(snap) / 2, len(snap) - 1} {
		if _, _, err := New().Restore(snap[:cut]); err == nil {
			t.Fatalf("Restore accepted %d of %d bytes", cut, len(snap))
		}
	}
}

// TestRestorePrepared: direct reinstatement installs writes and reader
// records without re-running the check, and is idempotent.
func TestRestorePrepared(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	m := meta(ts(10, 1), map[string]types.Timestamp{"x": ts(0, 0)}, map[string]string{"y": "v10"})
	id := m.ID()
	if !s.RestorePrepared(m, id) {
		t.Fatal("RestorePrepared refused a fresh transaction")
	}
	if s.RestorePrepared(m, id) {
		t.Fatal("RestorePrepared not idempotent")
	}
	if s.TxStatusOf(id) != StatusPrepared {
		t.Fatal("status not prepared")
	}
	r := s.Read("y", ts(20, 2))
	if r.Prepared == nil || string(r.Prepared.Value) != "v10" {
		t.Fatal("reinstated prepared write invisible")
	}
	// The reinstated reader record guards x.
	mw := meta(ts(5, 3), nil, map[string]string{"x": "conflict"})
	if res := s.CheckAndPrepare(mw, mw.ID()); res.Outcome != CheckAbort {
		t.Fatalf("reinstated reader not enforced: %v", res.Outcome)
	}
}

// TestSnapshotRestoreRejectsInconsistentRecords: versions and reader
// records take their timestamps, values, commit state and read versions
// from the records they name, so Restore refuses an entry whose stored
// fields disagree with that record, or whose record is missing, instead
// of silently rewriting it.
func TestSnapshotRestoreRejectsInconsistentRecords(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	mc := meta(ts(10, 1), nil, map[string]string{"x": "v10"})
	mustPrepare(t, s, mc)
	s.Finalize(mc.ID(), mc, types.DecisionCommit, nil)
	mp := meta(ts(20, 2), map[string]types.Timestamp{"x": ts(10, 1)}, map[string]string{"y": "w20"})
	mustPrepare(t, s, mp)
	snap := s.Snapshot(nil)
	if _, _, err := New().Restore(snap); err != nil {
		t.Fatalf("consistent snapshot refused: %v", err)
	}

	idc, idp := mc.ID(), mp.ID()
	// A version entry is (version, writer id, committed, value); a reader
	// entry is (reader timestamp, read version, reader id).
	writeEntry := append(append(ts(10, 1).AppendCanonical(nil), idc[:]...), 1, 0, 0, 0, 3, 'v', '1', '0')
	readEntry := append(append(ts(20, 2).AppendCanonical(nil), ts(10, 1).AppendCanonical(nil)...), idp[:]...)
	genesisEntry := append(make([]byte, 48), 1, 0, 0, 0, 2, 'v', '0')
	for _, c := range []struct {
		name  string
		entry []byte
		flip  int // byte of the entry to corrupt
	}{
		{"writer timestamp", writeEntry, 7},
		{"writer record", writeEntry, 16},
		{"writer value", writeEntry, 55},
		{"writer commit state", writeEntry, 48},
		{"genesis timestamp", genesisEntry, 7},
		{"genesis writer", genesisEntry, 16},
		{"reader timestamp", readEntry, 7},
		{"reader record", readEntry, 32},
		{"reader read version", readEntry, 23},
	} {
		at := bytes.Index(snap, c.entry)
		if at < 0 || bytes.Count(snap, c.entry) != 1 {
			t.Fatalf("%s: entry not found exactly once", c.name)
		}
		bad := bytes.Clone(snap)
		bad[at+c.flip] ^= 1
		if _, _, err := New().Restore(bad); err == nil {
			t.Fatalf("%s: Restore accepted a snapshot whose entry disagrees with its record", c.name)
		}
	}
}
