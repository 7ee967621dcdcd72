package store

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/types"
)

func ts(t, c uint64) types.Timestamp { return types.Timestamp{Time: t, ClientID: c} }

func meta(at types.Timestamp, reads map[string]types.Timestamp, writes map[string]string) *types.TxMeta {
	m := &types.TxMeta{Timestamp: at, Shards: []int32{0}}
	for k, v := range reads {
		m.ReadSet = append(m.ReadSet, types.ReadEntry{Key: k, Version: v})
	}
	for k, v := range writes {
		m.WriteSet = append(m.WriteSet, types.WriteEntry{Key: k, Value: []byte(v)})
	}
	return m
}

func mustPrepare(t *testing.T, s *Store, m *types.TxMeta) types.TxID {
	t.Helper()
	id := m.ID()
	res := s.CheckAndPrepare(m, id)
	if res.Outcome != CheckOK {
		t.Fatalf("prepare failed: %v", res.Outcome)
	}
	return id
}

func TestGenesisRead(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	r := s.Read("x", ts(10, 1))
	if r.Committed == nil || string(r.Committed.Value) != "v0" {
		t.Fatal("genesis read failed")
	}
	if !r.Committed.Version().IsZero() {
		t.Fatal("genesis version must be zero")
	}
}

func TestPrepareMakesWritesVisible(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	m := meta(ts(5, 1), nil, map[string]string{"x": "v5"})
	mustPrepare(t, s, m)
	r := s.Read("x", ts(10, 1))
	if r.Prepared == nil || string(r.Prepared.Value) != "v5" {
		t.Fatal("prepared write not visible")
	}
	if r.Committed == nil || string(r.Committed.Value) != "v0" {
		t.Fatal("committed branch should still be genesis")
	}
	// Reads below the prepared version must not see it.
	r2 := s.Read("x", ts(3, 1))
	if r2.Prepared != nil {
		t.Fatal("prepared write visible to earlier timestamp")
	}
}

func TestCommitPromotesWrite(t *testing.T) {
	s := New()
	m := meta(ts(5, 1), nil, map[string]string{"x": "v5"})
	id := mustPrepare(t, s, m)
	if !s.Finalize(id, m, types.DecisionCommit, nil) {
		t.Fatal("finalize returned false")
	}
	r := s.Read("x", ts(10, 1))
	if r.Committed == nil || string(r.Committed.Value) != "v5" {
		t.Fatal("committed write not readable")
	}
	if r.Prepared != nil {
		t.Fatal("prepared branch should be gone once committed")
	}
	if s.TxStatusOf(id) != StatusCommitted {
		t.Fatal("status not committed")
	}
}

func TestAbortRemovesWrite(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	m := meta(ts(5, 1), nil, map[string]string{"x": "v5"})
	id := mustPrepare(t, s, m)
	s.Finalize(id, m, types.DecisionAbort, nil)
	r := s.Read("x", ts(10, 1))
	if r.Prepared != nil || string(r.Committed.Value) != "v0" {
		t.Fatal("aborted write leaked")
	}
}

func TestFinalizeIdempotentAndStable(t *testing.T) {
	s := New()
	m := meta(ts(5, 1), nil, map[string]string{"x": "v5"})
	id := mustPrepare(t, s, m)
	s.Finalize(id, m, types.DecisionCommit, nil)
	// A later conflicting decision must not change the outcome.
	if s.Finalize(id, m, types.DecisionAbort, nil) {
		t.Fatal("second finalize changed state")
	}
	if s.TxStatusOf(id) != StatusCommitted {
		t.Fatal("decision flipped")
	}
}

func TestReadMissedWriteAborts(t *testing.T) {
	// Algorithm 1 lines 7-8: T read version 0 but a committed write at
	// ts 5 < ts(T) exists: T must abort.
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	w := meta(ts(5, 1), nil, map[string]string{"x": "v5"})
	id := mustPrepare(t, s, w)
	s.Finalize(id, w, types.DecisionCommit, nil)

	r := meta(ts(10, 2), map[string]types.Timestamp{"x": {}}, map[string]string{"y": "q"})
	res := s.CheckAndPrepare(r, r.ID())
	if res.Outcome != CheckAbort {
		t.Fatalf("expected abort, got %v", res.Outcome)
	}
}

func TestFutureReadIsMisbehavior(t *testing.T) {
	// Algorithm 1 line 6: claiming a read version above the transaction's
	// own timestamp is proof of misbehavior.
	s := New()
	m := meta(ts(5, 1), map[string]types.Timestamp{"x": ts(9, 9)}, nil)
	if res := s.CheckAndPrepare(m, m.ID()); res.Outcome != CheckMisbehavior {
		t.Fatalf("expected misbehavior, got %v", res.Outcome)
	}
}

func TestWriteInvalidatingReaderAborts(t *testing.T) {
	// Algorithm 1 lines 9-11: T2 prepared having read x@0 at ts 10; a
	// write to x at ts 5 would invalidate T2's read: abort, and the
	// result should name T2 as the prepared conflict.
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	t2 := meta(ts(10, 2), map[string]types.Timestamp{"x": {}}, map[string]string{"y": "v"})
	mustPrepare(t, s, t2)

	t1 := meta(ts(5, 1), nil, map[string]string{"x": "v5"})
	res := s.CheckAndPrepare(t1, t1.ID())
	if res.Outcome != CheckAbort {
		t.Fatalf("expected abort, got %v", res.Outcome)
	}
	if res.PreparedConflict == nil || res.PreparedConflict.ID() != t2.ID() {
		t.Fatal("abort should blame the prepared reader")
	}
}

func TestRTSBlocksOlderWriter(t *testing.T) {
	// Algorithm 1 lines 12-13: an outstanding read at ts 10 blocks a
	// write at ts 5.
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	s.Read("x", ts(10, 2)) // places RTS
	w := meta(ts(5, 1), nil, map[string]string{"x": "v5"})
	if res := s.CheckAndPrepare(w, w.ID()); res.Outcome != CheckAbort {
		t.Fatalf("expected RTS abort, got %v", res.Outcome)
	}
	// Dropping the RTS unblocks an equivalent later attempt.
	s.DropRTS([]string{"x"}, ts(10, 2))
	w2 := meta(ts(6, 1), nil, map[string]string{"x": "v6"})
	if res := s.CheckAndPrepare(w2, w2.ID()); res.Outcome != CheckOK {
		t.Fatalf("expected OK after DropRTS, got %v", res.Outcome)
	}
}

func TestHigherTimestampWriterUnaffectedByRTS(t *testing.T) {
	s := New()
	s.Read("x", ts(10, 2))
	w := meta(ts(15, 1), nil, map[string]string{"x": "v"})
	if res := s.CheckAndPrepare(w, w.ID()); res.Outcome != CheckOK {
		t.Fatalf("expected OK, got %v", res.Outcome)
	}
}

func TestPrepareReleasesRTSMaximum(t *testing.T) {
	// When a reader's prepare consumes its execution-time RTS reservation,
	// maxRTS must be recomputed from the remaining live reads — not stay
	// pinned at the highest-ever read timestamp. Otherwise the coarse
	// line-12 filter spuriously aborts every writer below that watermark
	// forever, even ones the precise reader-record check admits
	// (write ts < readVer).
	s := New()
	w30 := meta(ts(30, 1), nil, map[string]string{"x": "v30"})
	mustPrepare(t, s, w30)
	s.Finalize(w30.ID(), w30, types.DecisionCommit, nil)

	// Reader at ts 50 reads version 30, then prepares (read-only on x).
	s.Read("x", ts(50, 2))
	rd := meta(ts(50, 2), map[string]types.Timestamp{"x": ts(30, 1)}, map[string]string{"y": "v"})
	mustPrepare(t, s, rd)

	// A writer at ts 10 does not invalidate the ts-50 read of version 30
	// (10 < 30), and no live read remains outstanding — it must be
	// admitted.
	w10 := meta(ts(10, 3), nil, map[string]string{"x": "v10"})
	if res := s.CheckAndPrepare(w10, w10.ID()); res.Outcome != CheckOK {
		t.Fatalf("expected OK after reader prepared, got %v", res.Outcome)
	}
}

func TestDuplicatePrepareDetected(t *testing.T) {
	s := New()
	m := meta(ts(5, 1), nil, map[string]string{"x": "v"})
	mustPrepare(t, s, m)
	if res := s.CheckAndPrepare(m, m.ID()); res.Outcome != CheckDuplicate {
		t.Fatalf("expected duplicate, got %v", res.Outcome)
	}
}

func TestConflictCertReturnedForCommittedConflict(t *testing.T) {
	s := New()
	w := meta(ts(5, 1), nil, map[string]string{"x": "v5"})
	id := w.ID()
	cert := &types.DecisionCert{TxID: id, Decision: types.DecisionCommit}
	mustPrepare(t, s, w)
	s.Finalize(id, w, types.DecisionCommit, cert)

	r := meta(ts(10, 2), map[string]types.Timestamp{"x": {}}, map[string]string{"z": "q"})
	res := s.CheckAndPrepare(r, r.ID())
	if res.Outcome != CheckAbort || res.Conflict != cert {
		t.Fatal("committed conflict should return the certificate (abort fast path case 5)")
	}
}

func TestRemovePrepared(t *testing.T) {
	s := New()
	m := meta(ts(5, 1), map[string]types.Timestamp{"r": {}}, map[string]string{"x": "v"})
	id := mustPrepare(t, s, m)
	s.RemovePrepared(id)
	if s.TxStatusOf(id) != StatusUnknown {
		t.Fatal("record not removed")
	}
	r := s.Read("x", ts(10, 1))
	if r.Prepared != nil {
		t.Fatal("prepared write survived removal")
	}
	// Removing a committed transaction must be refused.
	m2 := meta(ts(6, 1), nil, map[string]string{"y": "v"})
	id2 := mustPrepare(t, s, m2)
	s.Finalize(id2, m2, types.DecisionCommit, nil)
	s.RemovePrepared(id2)
	if s.TxStatusOf(id2) != StatusCommitted {
		t.Fatal("RemovePrepared touched a committed transaction")
	}
}

func TestWritebackWithoutPrepareInstallsWrites(t *testing.T) {
	// A replica that missed ST1 must still apply a certified commit.
	s := New()
	m := meta(ts(5, 1), nil, map[string]string{"x": "v5"})
	s.Finalize(m.ID(), m, types.DecisionCommit, nil)
	r := s.Read("x", ts(10, 1))
	if r.Committed == nil || string(r.Committed.Value) != "v5" {
		t.Fatal("writeback-only commit not applied")
	}
}

func TestLatestCommitted(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	m := meta(ts(5, 1), nil, map[string]string{"x": "v5"})
	s.Finalize(m.ID(), m, types.DecisionCommit, nil)
	ver, val, ok := s.LatestCommitted("x")
	if !ok || string(val) != "v5" || ver != ts(5, 1) {
		t.Fatal("LatestCommitted wrong")
	}
	if _, _, ok := s.LatestCommitted("nope"); ok {
		t.Fatal("missing key reported present")
	}
}

func TestGCKeepsNewestBelowWatermark(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	for i := uint64(1); i <= 5; i++ {
		m := meta(ts(i*10, 1), nil, map[string]string{"x": fmt.Sprintf("v%d", i)})
		mustPrepare(t, s, m)
		s.Finalize(m.ID(), m, types.DecisionCommit, nil)
	}
	dropped := s.GC(ts(35, 0))
	if dropped == 0 {
		t.Fatal("GC dropped nothing")
	}
	// Reads at and above the watermark still see the right versions.
	r := s.Read("x", ts(36, 1))
	if r.Committed == nil || string(r.Committed.Value) != "v3" {
		t.Fatalf("read below watermark broken: %v", r.Committed)
	}
	r2 := s.Read("x", ts(100, 1))
	if string(r2.Committed.Value) != "v5" {
		t.Fatal("latest version lost")
	}
}

func TestStatsSnapshot(t *testing.T) {
	s := New()
	s.ApplyGenesis("x", []byte("v0"))
	m := meta(ts(5, 1), nil, map[string]string{"x": "v"})
	mustPrepare(t, s, m)
	st := s.StatsSnapshot()
	if st.Keys != 1 || st.Prepared != 1 || st.Versions != 2 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

// Property: random interleavings of prepares/commits/aborts never break
// per-key version ordering: committed reads always return the largest
// committed version strictly below the read timestamp.
func TestVersionOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		s.ApplyGenesis("k", []byte{0})
		// committed[t] = value byte written at time t (MVTSO assumes
		// unique timestamps, so the model skips reuses).
		committed := map[uint64]byte{}
		used := map[uint64]bool{}
		for i := 0; i < 40; i++ {
			tsv := uint64(1 + rng.Intn(100))
			if used[tsv] {
				continue
			}
			used[tsv] = true
			val := byte(rng.Intn(255) + 1)
			m := meta(ts(tsv, uint64(rng.Intn(5))), nil, map[string]string{"k": string([]byte{val})})
			id := m.ID()
			if res := s.CheckAndPrepare(m, id); res.Outcome != CheckOK {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				s.Finalize(id, m, types.DecisionCommit, nil)
				if old, ok := committed[tsv]; !ok || old == 0 {
					committed[tsv] = val
				}
			case 1:
				s.Finalize(id, m, types.DecisionAbort, nil)
			default:
				// leave prepared
			}
		}
		// Validate reads at random timestamps against the model.
		for probe := 0; probe < 20; probe++ {
			at := uint64(1 + rng.Intn(120))
			r := s.Read("k", types.Timestamp{Time: at, ClientID: 9999})
			var bestTs uint64
			var bestVal byte
			for wts, v := range committed {
				// Writer client ids (0..4) are below the prober's 9999,
				// so a write at exactly `at` is still below the read
				// timestamp in the (Time, ClientID) total order.
				if wts <= at && wts >= bestTs && v != 0 {
					bestTs, bestVal = wts, v
				}
			}
			if bestTs == 0 {
				continue // genesis expected; fine either way
			}
			if r.Committed == nil || r.Committed.Version().Time != bestTs || r.Committed.Value[0] != bestVal {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRecordSizes pins the per-transaction, per-version and per-reader
// footprint: versions and readers derive their timestamps, values and
// commit state from the record they point at, and the record does not
// repeat its table key.
func TestRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit hosts")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"TxRecord", unsafe.Sizeof(TxRecord{}), 24},
		{"writeRec", unsafe.Sizeof(writeRec{}), 8},
		{"readRec", unsafe.Sizeof(readRec{}), 8},
	} {
		if c.got != c.want {
			t.Fatalf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
