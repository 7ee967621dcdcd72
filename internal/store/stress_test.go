package store

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// committedVersion reports whether key holds a committed write at
// exactly ver, returning its value. Post-storm oracle helper.
func (s *Store) committedVersion(key string, ver types.Timestamp) ([]byte, bool) {
	s.global.RLock()
	defer s.global.RUnlock()
	st := s.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.keys[key]
	if e == nil {
		return nil, false
	}
	for i := range e.writes {
		if e.writes[i].committed() && e.writes[i].ver() == ver {
			return e.valueOf(key, &e.writes[i]), true
		}
	}
	return nil, false
}

// checkInvariants validates the store's internal consistency. It is the
// oracle of the concurrent stress battery and runs after the storm (no
// concurrent mutators), so it may walk internals freely.
func (s *Store) checkInvariants() error {
	// maxRTS matches the live RTS entries exactly: it dominates every
	// outstanding entry AND is attained by one (or zero when none
	// remain). A stale upper bound is the bug class GC and dropRTS both
	// had — it silently aborts every writer below a dead read forever.
	// Each entry holds a distinct timestamp and at least one reference.
	for si := range s.stripes {
		for k, e := range s.stripes[si].keys {
			var want types.Timestamp
			for i, r := range e.rts {
				if r.refs < 1 {
					return fmt.Errorf("key %q: RTS %v kept with %d references", k, r.ts, r.refs)
				}
				for _, other := range e.rts[:i] {
					if other.ts == r.ts {
						return fmt.Errorf("key %q: RTS %v listed twice", k, r.ts)
					}
				}
				if want.Less(r.ts) {
					want = r.ts
				}
			}
			if e.maxRTS != want {
				return fmt.Errorf("key %q: maxRTS %v, live RTS max %v", k, e.maxRTS, want)
			}
			// Version chains sorted strictly ascending, readers by
			// timestamp.
			for i := 1; i < len(e.writes); i++ {
				if !e.writes[i-1].ver().Less(e.writes[i].ver()) {
					return fmt.Errorf("key %q: version chain out of order at %d", k, i)
				}
			}
			for i := 1; i < len(e.readers); i++ {
				if e.readers[i].readerTs().Less(e.readers[i-1].readerTs()) {
					return fmt.Errorf("key %q: readers out of order at %d", k, i)
				}
			}
			// Keys live on the stripe their hash selects.
			if s.stripeIdx(k) != si {
				return fmt.Errorf("key %q on stripe %d, hashes to %d", k, si, s.stripeIdx(k))
			}
		}
	}
	// Prepared/committed/aborted sets consistent with per-key state.
	for id, rec := range s.txns {
		if rec.Meta == nil {
			continue
		}
		for _, w := range rec.Meta.WriteSet {
			e := s.stripeOf(w.Key).keys[w.Key]
			var found *writeRec
			if e != nil {
				for i := range e.writes {
					if e.writes[i].writer == rec {
						found = &e.writes[i]
						break
					}
				}
			}
			switch rec.Status {
			case StatusPrepared:
				if found == nil || found.committed() {
					return fmt.Errorf("tx %v prepared but write on %q missing or committed", id, w.Key)
				}
			case StatusCommitted:
				if found == nil || !found.committed() {
					// GC may legitimately have collected an old committed
					// version; only flag it if a newer committed version of
					// the key does not exist.
					newer := false
					if e != nil {
						for i := range e.writes {
							if e.writes[i].committed() && rec.Meta.Timestamp.Less(e.writes[i].ver()) {
								newer = true
							}
						}
					}
					if !newer {
						return fmt.Errorf("tx %v committed but write on %q lost", id, w.Key)
					}
				}
			case StatusAborted:
				if found != nil {
					return fmt.Errorf("tx %v aborted but write on %q survived", id, w.Key)
				}
			}
		}
	}
	return nil
}

// stressModel tracks, per goroutine, what the storm committed; merged
// after the join it is the ground truth reads are checked against.
type stressModel struct {
	mu        sync.Mutex
	committed []*types.TxMeta
}

func (m *stressModel) commit(meta *types.TxMeta) {
	m.mu.Lock()
	m.committed = append(m.committed, meta)
	m.mu.Unlock()
}

// TestStoreConcurrentStress hammers one store from many goroutines with
// interleaved Read/CheckAndPrepare/Finalize/RemovePrepared/DropRTS/GC on
// overlapping keys — plus a dedicated GC goroutine advancing a watermark
// through the storm and a scraper calling StatsSnapshot, which walks the
// stripes under the shared lock while they change — then asserts the
// invariants the replica layer relies on: no committed write lost, no
// version at or above the final watermark lost, maxRTS matching the live
// RTS entries exactly, readers sorted by timestamp, and the prepared set
// consistent with the per-key version chains. Run it under
// -race (it is part of `make test-race`): the interleavings, not the
// assertions, are the point.
func TestStoreConcurrentStress(t *testing.T) {
	const (
		workers = 8
		rounds  = 400
		nKeys   = 16
	)
	for _, stripes := range []int{1, 8, 64} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			s := NewStriped(stripes)
			keys := make([]string, nKeys)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%02d", i)
				s.ApplyGenesis(keys[i], []byte{0})
			}
			var model stressModel
			var clock struct {
				mu sync.Mutex
				t  uint64
			}
			nextTs := func(worker int) types.Timestamp {
				clock.mu.Lock()
				clock.t++
				ts := types.Timestamp{Time: clock.t, ClientID: uint64(worker + 1)}
				clock.mu.Unlock()
				return ts
			}
			now := func() uint64 {
				clock.mu.Lock()
				defer clock.mu.Unlock()
				return clock.t
			}

			// The GC goroutine sweeps a watermark trailing the issued
			// timestamps for the whole storm; highWater is the largest
			// watermark any GC pass (goroutine or in-worker op) used, the
			// line the post-storm loss oracle is checked against.
			var highWater atomic.Uint64
			gcAt := func(w uint64) {
				for {
					cur := highWater.Load()
					if w <= cur || highWater.CompareAndSwap(cur, w) {
						break
					}
				}
				s.GC(types.Timestamp{Time: w})
			}
			gcDone := make(chan struct{})
			var gcWG sync.WaitGroup
			gcWG.Add(2)
			var scrapeErr atomic.Value
			go func() {
				defer gcWG.Done()
				for {
					select {
					case <-gcDone:
						return
					default:
					}
					// Gauges need no cross-stripe cut, but each count
					// must be one a live store could hold.
					st := s.StatsSnapshot()
					if st.Keys > nKeys || st.Prepared+st.Committed+st.Aborted != st.Txns || st.Versions < st.Keys {
						scrapeErr.Store(fmt.Sprintf("impossible stats %+v", st))
					}
				}
			}()
			go func() {
				defer gcWG.Done()
				for {
					select {
					case <-gcDone:
						return
					default:
					}
					gcAt(now() / 2)
					time.Sleep(100 * time.Microsecond)
				}
			}()

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				rng := rand.New(rand.NewSource(int64(w)*7919 + 13))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						ts := nextTs(w)
						switch op := rng.Intn(10); {
						case op < 2: // plain read, sometimes released
							k := keys[rng.Intn(nKeys)]
							s.Read(k, ts)
							if rng.Intn(2) == 0 {
								s.DropRTS([]string{k}, ts)
							}
						case op < 9: // transaction attempt
							m := &types.TxMeta{Timestamp: ts, Shards: []int32{0}}
							for _, ki := range rng.Perm(nKeys)[:1+rng.Intn(3)] {
								k := keys[ki]
								res := s.Read(k, ts)
								var ver types.Timestamp
								if res.Committed != nil {
									ver = res.Committed.Version()
								}
								m.ReadSet = append(m.ReadSet, types.ReadEntry{Key: k, Version: ver})
							}
							for _, ki := range rng.Perm(nKeys)[:1+rng.Intn(2)] {
								m.WriteSet = append(m.WriteSet,
									types.WriteEntry{Key: keys[ki], Value: []byte{byte(w + 1), byte(i)}})
							}
							id := m.ID()
							if s.CheckAndPrepare(m, id).Outcome != CheckOK {
								for _, r := range m.ReadSet {
									s.DropRTS([]string{r.Key}, ts)
								}
								continue
							}
							switch rng.Intn(6) {
							case 0:
								s.Finalize(id, m, types.DecisionAbort, nil)
							case 1:
								s.RemovePrepared(id)
							case 2:
								// Leave prepared: an undecided transaction
								// must survive the storm intact.
							default:
								s.Finalize(id, m, types.DecisionCommit, nil)
								model.commit(m)
							}
						case op == 9: // background maintenance
							if rng.Intn(2) == 0 {
								gcAt(ts.Time / 2)
							} else {
								s.StatsSnapshot()
							}
						}
					}
				}()
			}
			wg.Wait()
			close(gcDone)
			gcWG.Wait()
			finalWater := types.Timestamp{Time: highWater.Load()}
			if msg := scrapeErr.Load(); msg != nil {
				t.Fatal(msg)
			}

			if err := s.checkInvariants(); err != nil {
				t.Fatalf("invariant violated after storm: %v", err)
			}
			// No version at or above the watermark is lost: GC only drops
			// committed versions strictly below the newest one at or below
			// its watermark, so every model commit from the watermark up
			// must still be present, byte for byte.
			checkedAbove := 0
			for _, m := range model.committed {
				if m.Timestamp.Less(finalWater) {
					continue
				}
				checkedAbove++
				for _, w := range m.WriteSet {
					ver, ok := s.committedVersion(w.Key, m.Timestamp)
					if !ok {
						t.Fatalf("version %v of %q (at/above watermark %v) lost",
							m.Timestamp, w.Key, finalWater)
					}
					if string(ver) != string(w.Value) {
						t.Fatalf("version %v of %q diverged", m.Timestamp, w.Key)
					}
				}
			}
			if checkedAbove == 0 && len(model.committed) > 0 {
				t.Log("watermark overtook every commit; loss oracle vacuous this run")
			}
			// No committed write lost: per key, the newest committed write in
			// the model must be exactly what LatestCommitted serves.
			bestByKey := make(map[string]*types.TxMeta)
			for _, m := range model.committed {
				for _, w := range m.WriteSet {
					if cur := bestByKey[w.Key]; cur == nil || cur.Timestamp.Less(m.Timestamp) {
						bestByKey[w.Key] = m
					}
				}
			}
			for k, m := range bestByKey {
				ver, val, ok := s.LatestCommitted(k)
				if !ok {
					t.Fatalf("key %q: committed write at %v lost entirely", k, m.Timestamp)
				}
				if ver != m.Timestamp {
					t.Fatalf("key %q: latest committed %v, model says %v", k, ver, m.Timestamp)
				}
				var want []byte
				for _, w := range m.WriteSet {
					if w.Key == k {
						want = w.Value
					}
				}
				if string(val) != string(want) {
					t.Fatalf("key %q: committed value diverged", k)
				}
			}
			// Every model commit at or above the watermark is recorded
			// committed; below it, GC may legitimately have collected the
			// finalized record (but must never have flipped it).
			for _, m := range model.committed {
				switch st := s.TxStatusOf(m.ID()); st {
				case StatusCommitted:
				case StatusUnknown:
					if !m.Timestamp.Less(finalWater) {
						t.Fatalf("committed tx %v (at/above watermark) collected", m.ID())
					}
				default:
					t.Fatalf("committed tx %v recorded as %v", m.ID(), st)
				}
			}
		})
	}
}
