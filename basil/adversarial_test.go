package basil_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/basil"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/faults"
	"repro/internal/replica"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/verify"
)

// timestampAt builds a watermark timestamp at time t.
func timestampAt(t uint64) types.Timestamp { return types.Timestamp{Time: t} }

// TestSerializabilityUnderContention runs concurrent random transactions
// and validates the committed history against the DSG oracle.
func TestSerializabilityUnderContention(t *testing.T) {
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 2, BatchSize: 4})
	defer cl.Close()
	keys := []string{"a", "b", "c", "d", "e"}
	for _, k := range keys {
		cl.Load(k, enc(0))
	}

	var mu sync.Mutex
	var checker verify.Checker
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		c := cl.NewClient()
		rng := rand.New(rand.NewSource(int64(w) + 100))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for attempt := 0; ; attempt++ {
					tx := c.Begin()
					k1 := keys[rng.Intn(len(keys))]
					k2 := keys[rng.Intn(len(keys))]
					v1, err := tx.Read(k1)
					if err != nil {
						t.Errorf("read: %v", err)
						return
					}
					if _, err := tx.Read(k2); err != nil {
						t.Errorf("read: %v", err)
						return
					}
					tx.Write(k1, enc(dec(v1)+1))
					err = tx.Commit()
					if err == nil {
						mu.Lock()
						checker.Add(verify.FromMeta(tx.Meta()))
						mu.Unlock()
						break
					}
					if attempt > 60 {
						t.Errorf("starved")
						return
					}
					time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	if err := checker.CheckSerializable(); err != nil {
		t.Fatalf("history not serializable: %v", err)
	}
	if err := checker.CheckTimestampOrderConsistent(); err != nil {
		t.Fatalf("timestamp order violated: %v", err)
	}
	if checker.Len() != 100 {
		t.Fatalf("expected 100 committed txs, got %d", checker.Len())
	}
}

// TestByzantineRepliesVoteAbortCannotBlockCommit: f replicas always voting
// abort disable the fast path but cannot abort correct transactions
// (Byzantine independence: AQ needs f+1).
func TestByzantineVoteAbortCannotBlockCommit(t *testing.T) {
	cl := basil.NewCluster(basil.Options{
		F: 1, Shards: 1,
		ReplicaByzantine: func(shard, index int32) replica.ByzantineStrategy {
			if index == 0 { // exactly f = 1 Byzantine replica
				return faults.VoteAbortReplica{}
			}
			return nil
		},
	})
	defer cl.Close()
	cl.Load("x", enc(1))
	c := cl.NewClient()
	for i := 0; i < 5; i++ {
		tx := c.Begin()
		v, err := tx.Read("x")
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		tx.Write("x", enc(dec(v)+1))
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d failed despite only f Byzantine replicas: %v", i, err)
		}
	}
	st := c.Stats()
	if st.FastPathTaken.Load() != 0 {
		t.Fatal("an always-abort replica must kill the unanimous fast path")
	}
	if st.SlowPathTaken.Load() == 0 {
		t.Fatal("slow path should have been used")
	}
}

// TestUnresponsiveRepliesTolerated: f silent replicas (reads and votes)
// must not prevent progress.
func TestUnresponsiveRepliesTolerated(t *testing.T) {
	cl := basil.NewCluster(basil.Options{
		F: 1, Shards: 1,
		ReplicaByzantine: func(shard, index int32) replica.ByzantineStrategy {
			if index == 5 {
				return faults.UnresponsiveReplica{Reads: true, Votes: true}
			}
			return nil
		},
	})
	defer cl.Close()
	cl.Load("x", enc(7))
	c := cl.NewClient()
	tx := c.Begin()
	v, err := tx.Read("x")
	if err != nil {
		t.Fatalf("read with silent replica: %v", err)
	}
	tx.Write("x", enc(dec(v)*2))
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit with silent replica: %v", err)
	}
}

// TestStalledTransactionFinishedByOtherClient: a Byzantine client prepares
// a transaction and stalls; a correct client that depends on its write
// finishes it via the fallback (paper §5 common case).
func TestStalledTransactionFinishedByOtherClient(t *testing.T) {
	cl := basil.NewCluster(basil.Options{
		F: 1, Shards: 1, PhaseTimeout: 40 * time.Millisecond,
	})
	defer cl.Close()
	cl.Load("x", enc(10))

	byz := cl.NewClient()
	btx := byz.Begin()
	v, err := btx.Read("x")
	if err != nil {
		t.Fatalf("byz read: %v", err)
	}
	btx.Write("x", enc(dec(v)+100))
	// Prepare everywhere but never write back (stall-late).
	if ok := byz.Inner().CommitFaulty(btx.Inner(), client.FaultStallLate); !ok {
		t.Fatal("stall-late behavior did not run")
	}

	// The correct client reads x, sees the prepared write (f+1 replicas
	// vouch for it), acquires the dependency, and must eventually commit
	// by finishing the stalled transaction.
	c := cl.NewClient()
	done := make(chan error, 1)
	go func() {
		done <- c.Run(func(tx *basil.Txn) error {
			vv, err := tx.Read("x")
			if err != nil {
				return err
			}
			tx.Write("x", enc(dec(vv)+1))
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("dependent transaction failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("dependent transaction stalled forever")
	}

	// The stalled transaction must have reached a decision; the final
	// value reflects either its commit (+100) then +1, or its abort then
	// +1 over the original.
	tx := c.Begin()
	final, err := tx.Read("x")
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	tx.Abort()
	got := dec(final)
	if got != 111 && got != 11 {
		t.Fatalf("final x = %d, want 111 (dep committed) or 11 (dep aborted)", got)
	}
	if c.Stats().DepsAcquired.Load() == 0 {
		t.Fatal("correct client never acquired the dependency")
	}
}

// TestEquivocationResolvedByFallback: a Byzantine client logs conflicting
// ST2 decisions (the paper's Figure 3 scenario); an interested client
// drives the divergent-case fallback and obtains one consistent decision.
func TestEquivocationResolvedByFallback(t *testing.T) {
	cl := basil.NewCluster(basil.Options{
		F: 1, Shards: 1, PhaseTimeout: 40 * time.Millisecond,
		AllowUnvalidatedST2: true,
	})
	defer cl.Close()
	cl.Load("x", enc(5))

	byz := cl.NewClient()
	btx := byz.Begin()
	v, _ := btx.Read("x")
	btx.Write("x", enc(dec(v)+50))
	if ok := byz.Inner().CommitFaulty(btx.Inner(), client.FaultEquivForced); !ok {
		t.Fatal("forced equivocation did not run")
	}
	meta := btx.Inner().MetaSnapshot()

	// An interested correct client finishes the equivocated transaction.
	c := cl.NewClient()
	dec1, cert1, err := c.Inner().FinishTransaction(meta)
	if err != nil {
		t.Fatalf("fallback did not terminate: %v", err)
	}
	if cert1 == nil {
		t.Fatal("no certificate produced")
	}
	// A second recoverer must reach the same decision (durability).
	c2 := cl.NewClient()
	dec2, _, err := c2.Inner().FinishTransaction(meta)
	if err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	if dec1 != dec2 {
		t.Fatalf("fallback produced divergent decisions: %v vs %v", dec1, dec2)
	}
	if c.Stats().FallbackRounds.Load() == 0 && c2.Stats().FallbackRounds.Load() == 0 {
		t.Log("note: fallback resolved on the common-case path (no election needed)")
	}
}

// TestRecoveryOfCleanlyCommittedTx: finishing an already-committed
// transaction returns its commit certificate (RP fast-forward).
func TestRecoveryOfCommittedTxReturnsCert(t *testing.T) {
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 1})
	defer cl.Close()
	cl.Load("x", enc(1))
	c := cl.NewClient()
	tx := c.Begin()
	v, _ := tx.Read("x")
	tx.Write("x", enc(dec(v)+1))
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	meta := tx.Meta()
	time.Sleep(5 * time.Millisecond) // let writebacks land

	c2 := cl.NewClient()
	decision, cert, err := c2.Inner().FinishTransaction(meta)
	if err != nil {
		t.Fatalf("recovery of committed tx: %v", err)
	}
	if cert == nil || decision.String() != "commit" {
		t.Fatalf("expected commit cert, got %v", decision)
	}
}

// TestDeltaBoundRejectsFutureTimestamps: a client whose clock runs far
// ahead of the replicas is refused (paper §4.1), then succeeds once its
// timestamps fall inside δ.
func TestDeltaBoundRejectsFutureTimestamps(t *testing.T) {
	base := clock.NewManual(1_000_000)
	net := basil.NewCluster(basil.Options{
		F: 1, Shards: 1,
		Clock:        base,
		DeltaMicros:  1000,
		PhaseTimeout: 30 * time.Millisecond,
		RetryTimeout: 200 * time.Millisecond,
	})
	defer net.Close()
	net.Load("x", enc(1))

	// All nodes share `base`; a skewed view for the client is modeled by
	// bumping the clock between Begin and the replicas' checks — instead
	// we simply verify the in-δ case works and the far-future case (via
	// a skewed client cluster) is refused.
	c := net.NewClient()
	tx := c.Begin()
	if _, err := tx.Read("x"); err != nil {
		t.Fatalf("in-δ read failed: %v", err)
	}
	tx.Abort()

	skewed := basil.NewCluster(basil.Options{
		F: 1, Shards: 1,
		Clock:        base, // replicas use base...
		DeltaMicros:  1000,
		PhaseTimeout: 30 * time.Millisecond,
		RetryTimeout: 200 * time.Millisecond,
	})
	defer skewed.Close()
	skewed.Load("x", enc(1))
	// ...but this client begins transactions at base + 10s.
	cSkew := skewed.NewClientWithClock(clock.Skewed{Base: base, Offset: 10_000_000})
	tx2 := cSkew.Begin()
	if _, err := tx2.Read("x"); !errors.Is(err, basil.ErrTimeout) {
		t.Fatalf("far-future read should time out (replicas ignore it), got %v", err)
	}
	tx2.Abort()
}

// TestGCPreservesReads: garbage collection below a watermark keeps the
// newest committed version readable.
func TestGCPreservesReads(t *testing.T) {
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 1})
	defer cl.Close()
	cl.Load("x", enc(0))
	c := cl.NewClient()
	for i := uint64(1); i <= 10; i++ {
		tx := c.Begin()
		tx.Write("x", enc(i))
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	time.Sleep(5 * time.Millisecond)
	// GC aggressively on every replica.
	now := clock.Real{}.NowMicros()
	for i := 0; i < cl.ReplicaCount(); i++ {
		cl.Replica(0, i).Store().GC(timestampAt(now))
	}
	tx := c.Begin()
	v, err := tx.Read("x")
	if err != nil {
		t.Fatalf("read after GC: %v", err)
	}
	tx.Abort()
	if dec(v) != 10 {
		t.Fatalf("GC lost the newest version: %d", dec(v))
	}
}

// TestReadWaitVariants exercises the Fig. 5b read-quorum configurations.
func TestReadWaitVariants(t *testing.T) {
	for _, wait := range []int{1, 2, 3} {
		cl := basil.NewCluster(basil.Options{F: 1, Shards: 1, ReadWait: wait})
		cl.Load("x", enc(9))
		c := cl.NewClient()
		tx := c.Begin()
		v, err := tx.Read("x")
		if err != nil || dec(v) != 9 {
			t.Fatalf("ReadWait=%d: %v %v", wait, v, err)
		}
		tx.Write("x", enc(10))
		if err := tx.Commit(); err != nil {
			t.Fatalf("ReadWait=%d commit: %v", wait, err)
		}
		cl.Close()
	}
}

// TestNoSignaturesMode exercises the Basil-NoProofs ablation end to end.
func TestNoSignaturesMode(t *testing.T) {
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 1, NoSignatures: true})
	defer cl.Close()
	cl.Load("x", enc(3))
	c := cl.NewClient()
	err := c.Run(func(tx *basil.Txn) error {
		v, err := tx.Read("x")
		if err != nil {
			return err
		}
		tx.Write("x", enc(dec(v)+1))
		return nil
	})
	if err != nil {
		t.Fatalf("NoProofs transaction failed: %v", err)
	}
}

// TestDisableFastPathUsesST2 verifies the NoFP ablation takes the slow
// path exclusively.
func TestDisableFastPathUsesST2(t *testing.T) {
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 1, DisableFastPath: true})
	defer cl.Close()
	cl.Load("x", enc(0))
	c := cl.NewClient()
	for i := 0; i < 3; i++ {
		tx := c.Begin()
		tx.Write("x", enc(uint64(i)))
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	st := c.Stats()
	if st.FastPathTaken.Load() != 0 || st.SlowPathTaken.Load() == 0 {
		t.Fatalf("NoFP config still used the fast path: fast=%d slow=%d",
			st.FastPathTaken.Load(), st.SlowPathTaken.Load())
	}
}

// TestReadFetchesCertificateWhenWritebacksMissOneReplica drops every
// writeback to one replica of the shard, so that replica keeps serving
// the load-time value of every key. A read whose first replies come from
// it and from an up-to-date replica has no corroborated version, and the
// client fetches the newer version's certificate instead. Two clients
// increment shared counters: the fetch path is taken, every committed
// increment is seen (the counters end at the number of commits), and the
// committed history passes the DSG check.
func TestReadFetchesCertificateWhenWritebacksMissOneReplica(t *testing.T) {
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 1})
	defer cl.Close()
	keys := []string{"c0", "c1", "c2"}
	for _, k := range keys {
		cl.Load(k, enc(0))
	}
	stale := transport.ReplicaAddr(0, 5)
	cl.Net().SetPolicy(func(_, to transport.Addr, msg any) (time.Duration, bool) {
		_, wb := msg.(*types.WritebackRequest)
		return 0, wb && to == stale
	})

	const perClient = 20
	var (
		mu      sync.Mutex
		checker verify.Checker
		wg      sync.WaitGroup
	)
	clients := []*basil.Client{cl.NewClient(), cl.NewClient()}
	for w, c := range clients {
		rng := rand.New(rand.NewSource(int64(w) + 7))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				k := keys[rng.Intn(len(keys))]
				for attempt := 0; ; attempt++ {
					tx := c.Begin()
					v, err := tx.Read(k)
					if err == nil {
						tx.Write(k, enc(dec(v)+1))
						err = tx.Commit()
					}
					if err == nil {
						mu.Lock()
						checker.Add(verify.FromMeta(tx.Meta()))
						mu.Unlock()
						break
					}
					// Only a definite abort may retry: a timed-out commit
					// may have committed, and the counters would then
					// count it twice.
					if !errors.Is(err, basil.ErrAborted) || attempt > 50 {
						t.Errorf("increment %s: %v", k, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var fetches uint64
	for _, c := range clients {
		fetches += c.Stats().CertFetches.Load()
	}
	if fetches == 0 {
		t.Fatal("no read fetched a certificate although one replica missed every writeback")
	}
	var total uint64
	reader := cl.NewClient()
	if err := reader.Run(func(tx *basil.Txn) error {
		total = 0
		for _, k := range keys {
			v, err := tx.Read(k)
			if err != nil {
				return err
			}
			total += dec(v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := uint64(len(clients) * perClient); total != want {
		t.Fatalf("counters sum to %d after %d committed increments", total, want)
	}
	if err := checker.CheckSerializable(); err != nil {
		t.Fatal(err)
	}
	if err := checker.CheckTimestampOrderConsistent(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d commits, %d certificate fetches", checker.Len(), fetches)
}
