package basil_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/basil"
	"repro/internal/faults"
	"repro/internal/types"
	"repro/internal/verify"
)

// tickClock hands out strictly increasing microsecond values, one per
// call. Giving each fuzz client its own tickClock makes every (time,
// clientID) timestamp unique and the workload independent of wall time.
type tickClock struct{ now atomic.Uint64 }

func (c *tickClock) NowMicros() uint64 { return c.now.Add(1) }

// TestClusterFuzzSerializable runs a seeded random workload over the
// in-process Local transport with seeded link drops, then feeds every
// transaction that committed through the DSG oracle — the paper's
// correctness definition. Transactions whose outcome the storm left
// unknown (commit timed out mid-protocol) are resolved through the
// recovery path on a clean network before checking, since a transaction
// the client gave up on may still have committed and serve reads.
//
// The workload and the drop policy are both derived from the sub-test
// seed; a failure names it, so `-run 'TestClusterFuzzSerializable/seed=N'`
// reproduces the same message-loss pattern and transaction mix.
func TestClusterFuzzSerializable(t *testing.T) {
	for _, seed := range []int64{1, 42, 20260729} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			fuzzClusterRun(t, seed)
		})
	}
}

func fuzzClusterRun(t *testing.T, seed int64) {
	const (
		workers  = 4
		nKeys    = 8
		maxTries = 30
	)
	// The race detector slows instrumented ed25519 by roughly an order of
	// magnitude; scale the workload down and the protocol timeouts up so
	// the storm stresses interleavings rather than the wall clock.
	txPerWkr, dropRate := 15, 0.02
	phase, retry := 40*time.Millisecond, 1200*time.Millisecond
	if raceEnabled {
		txPerWkr, dropRate = 5, 0.01
		phase, retry = 250*time.Millisecond, 8*time.Second
	}
	cl := basil.NewCluster(basil.Options{
		F: 1, Shards: 2, BatchSize: 4,
		PhaseTimeout: phase,
		RetryTimeout: retry,
	})
	defer cl.Close()
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("fz%02d", i)
		cl.Load(keys[i], enc(0))
	}
	chaos := faults.NewChaos(seed)
	chaos.SetDrop(dropRate)
	cl.Net().SetPolicy(chaos.Policy())

	var (
		mu       sync.Mutex
		checker  verify.Checker
		unknowns []*types.TxMeta
		gaveUp   int
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		c := cl.NewClientWithClock(&tickClock{})
		rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txPerWkr; i++ {
				committedOrGaveUp := false
				for attempt := 0; !committedOrGaveUp; attempt++ {
					tx := c.Begin()
					ok := true
					for _, ki := range rng.Perm(nKeys)[:1+rng.Intn(2)] {
						if _, err := tx.Read(keys[ki]); err != nil {
							ok = false
							break
						}
					}
					if !ok {
						tx.Abort()
					} else {
						for _, ki := range rng.Perm(nKeys)[:1+rng.Intn(2)] {
							tx.Write(keys[ki], enc(uint64(w*1000+i)))
						}
						err := tx.Commit()
						switch {
						case err == nil:
							mu.Lock()
							checker.Add(verify.FromMeta(tx.Meta()))
							mu.Unlock()
							committedOrGaveUp = true
						case errors.Is(err, basil.ErrAborted):
							// Definite abort: retry with a fresh timestamp.
						default:
							// Timeout mid-protocol: the outcome is unknown
							// and must be resolved before the oracle runs.
							mu.Lock()
							unknowns = append(unknowns, tx.Meta())
							mu.Unlock()
							committedOrGaveUp = true
						}
					}
					if !committedOrGaveUp && attempt >= maxTries {
						mu.Lock()
						gaveUp++
						mu.Unlock()
						committedOrGaveUp = true
					}
				}
			}
		}()
	}
	wg.Wait()

	// Heal the network and resolve every unknown outcome through the
	// recovery protocol; an unknown that committed must count in the DSG.
	// Unknowns can depend on each other (a vote defers until the
	// dependency decides), so resolution sweeps the list repeatedly:
	// finishing one transaction unblocks the replicas deferring another's
	// vote.
	cl.Net().SetPolicy(nil)
	resolver := cl.NewClientWithClock(&tickClock{})
	pending := unknowns
	for pass := 0; pass < 6 && len(pending) > 0; pass++ {
		var next []*types.TxMeta
		for _, meta := range pending {
			dec, _, err := resolver.Inner().FinishTransaction(meta)
			if err != nil {
				next = append(next, meta)
				continue
			}
			if dec == types.DecisionCommit {
				checker.Add(verify.FromMeta(meta))
			}
		}
		pending = next
	}
	if len(pending) > 0 {
		for _, m := range pending {
			dumpStuck(t, cl, m)
		}
		t.Fatalf("seed %d: %d of %d unknown transactions unresolvable after healing (first: %v)",
			seed, len(pending), len(unknowns), pending[0].ID())
	}

	if checker.Len() == 0 {
		t.Fatalf("seed %d: storm committed nothing (gave up %d)", seed, gaveUp)
	}
	if err := checker.CheckSerializable(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if err := checker.CheckTimestampOrderConsistent(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	assertReplicaStateBounded(t, cl)
	t.Logf("seed %d: %d committed, %d unknown resolved, %d gave up",
		seed, checker.Len(), len(unknowns), gaveUp)
}

// assertReplicaStateBounded drives one checkpoint with a watermark above
// every storm timestamp on every replica, then asserts the retained
// protocol state is O(live): bounded by the store's prepared set
// (transactions whose decision never resolved), independent of how many
// transactions the storm pushed through. This is the lifecycle oracle —
// before watermark collection, len(Replica.txs) grew with history and
// this assertion fails. Call it only after every store-reading audit:
// the GC at this watermark truncates finalized history.
func assertReplicaStateBounded(t *testing.T, cl *basil.Cluster) {
	t.Helper()
	// Let fire-and-forget tails (writeback broadcasts from the last
	// recovery round) land before the collection pass.
	time.Sleep(100 * time.Millisecond)
	wm := types.Timestamp{Time: 1 << 40} // above every tickClock timestamp
	for s := 0; s < cl.Shards(); s++ {
		for i := 0; i < cl.ReplicaCount(); i++ {
			r := cl.Replica(s, i)
			if err := r.Checkpoint(wm); err != nil {
				t.Fatalf("r%d.%d: checkpoint: %v", s, i, err)
			}
			held := r.TxStateCount()
			live := len(r.Store().PreparedIDs())
			// Slack covers handler tails that rebuild a state while the
			// collection pass runs; anything beyond it is a leak.
			const slack = 4
			if held > live+slack {
				t.Fatalf("r%d.%d holds %d txStates for %d live prepared transactions — protocol state is not bounded by the live set",
					s, i, held, live)
			}
		}
	}
}

// dumpStuck logs each replica's view of a transaction the healed-network
// recovery could not finish — the first thing a debugging session needs
// from a failed seed.
func dumpStuck(t *testing.T, cl *basil.Cluster, meta *types.TxMeta) {
	id := meta.ID()
	t.Logf("stuck tx %v ts=%v shards=%v deps=%d", id, meta.Timestamp, meta.Shards, len(meta.Deps))
	for _, d := range meta.Deps {
		t.Logf("  dep %v ver=%v", d.TxID, d.Version)
	}
	for s := 0; s < cl.Shards(); s++ {
		for i := 0; i < cl.ReplicaCount(); i++ {
			st := cl.Replica(s, i).Store().TxStatusOf(id)
			depsSt := ""
			for _, d := range meta.Deps {
				depsSt += fmt.Sprintf(" dep=%v", cl.Replica(s, i).Store().TxStatusOf(d.TxID))
			}
			t.Logf("  r%d.%d: status=%v%s", s, i, st, depsSt)
		}
	}
}
