package basil_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/basil"
)

func enc(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func dec(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func TestSingleTransaction(t *testing.T) {
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 1})
	defer cl.Close()
	cl.Load("x", enc(7))

	c := cl.NewClient()
	tx := c.Begin()
	v, err := tx.Read("x")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if dec(v) != 7 {
		t.Fatalf("read x = %d, want 7", dec(v))
	}
	tx.Write("x", enc(8))
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	tx2 := c.Begin()
	v, err = tx2.Read("x")
	if err != nil {
		t.Fatalf("read2: %v", err)
	}
	if dec(v) != 8 {
		t.Fatalf("read x = %d after commit, want 8", dec(v))
	}
	tx2.Abort()
}

// TestCommittedMetaIsSubmitted: after Commit, Meta returns the metadata
// the transaction submitted (the one replicas hold), not a fresh copy,
// so a harness that records every committed transaction keeps no second
// copy; before Commit it is a snapshot with the same id.
func TestCommittedMetaIsSubmitted(t *testing.T) {
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 1})
	defer cl.Close()
	cl.Load("x", enc(1))
	tx := cl.NewClient().Begin()
	if _, err := tx.Read("x"); err != nil {
		t.Fatalf("read: %v", err)
	}
	tx.Write("x", enc(2))
	before := tx.Meta()
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	after := tx.Meta()
	if after != tx.Meta() || after == before {
		t.Fatal("Meta after Commit is not the one submitted metadata")
	}
	if after.ID() != before.ID() {
		t.Fatal("submitted metadata differs from the snapshot taken before Commit")
	}
}

func TestFastPathTaken(t *testing.T) {
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 1})
	defer cl.Close()
	cl.Load("k", enc(0))
	c := cl.NewClient()
	for i := 0; i < 5; i++ {
		tx := c.Begin()
		tx.Write("k", enc(uint64(i)))
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	st := c.Stats()
	if st.FastPathTaken.Load() == 0 {
		t.Fatalf("expected fast-path commits, got 0 (slow=%d)", st.SlowPathTaken.Load())
	}
}

func TestConcurrentCounterSerializable(t *testing.T) {
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 1})
	defer cl.Close()
	cl.Load("ctr", enc(0))

	const workers = 4
	const perWorker = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		c := cl.NewClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				err := c.Run(func(tx *basil.Txn) error {
					v, err := tx.Read("ctr")
					if err != nil {
						return err
					}
					tx.Write("ctr", enc(dec(v)+1))
					return nil
				})
				if err != nil {
					t.Errorf("worker tx: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	c := cl.NewClient()
	tx := c.Begin()
	v, err := tx.Read("ctr")
	if err != nil {
		t.Fatalf("final read: %v", err)
	}
	tx.Abort()
	if got := dec(v); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d (lost updates => serializability broken)", got, workers*perWorker)
	}
}

func TestCrossShardTransaction(t *testing.T) {
	cl := basil.NewCluster(basil.Options{
		F: 1, Shards: 3,
		ShardOf: func(key string) int32 { return int32(key[len(key)-1]-'0') % 3 },
	})
	defer cl.Close()
	cl.Load("a0", enc(100))
	cl.Load("b1", enc(50))
	cl.Load("c2", enc(10))

	c := cl.NewClient()
	err := c.Run(func(tx *basil.Txn) error {
		a, err := tx.Read("a0")
		if err != nil {
			return err
		}
		b, err := tx.Read("b1")
		if err != nil {
			return err
		}
		tx.Write("a0", enc(dec(a)-25))
		tx.Write("b1", enc(dec(b)+15))
		tx.Write("c2", enc(dec(a)+dec(b)))
		return nil
	})
	if err != nil {
		t.Fatalf("cross-shard tx: %v", err)
	}

	tx := c.Begin()
	a, _ := tx.Read("a0")
	b, _ := tx.Read("b1")
	csum, _ := tx.Read("c2")
	tx.Abort()
	if dec(a) != 75 || dec(b) != 65 || dec(csum) != 150 {
		t.Fatalf("post state a=%d b=%d c=%d, want 75 65 150", dec(a), dec(b), dec(csum))
	}
}

func TestManyKeysManyClients(t *testing.T) {
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 2, BatchSize: 4})
	defer cl.Close()
	const keys = 20
	for i := 0; i < keys; i++ {
		cl.Load(fmt.Sprintf("k%d", i), enc(uint64(i)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		c := cl.NewClient()
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				src := fmt.Sprintf("k%d", (w*5+i)%keys)
				dst := fmt.Sprintf("k%d", (w*7+i+3)%keys)
				if src == dst {
					continue
				}
				err := c.Run(func(tx *basil.Txn) error {
					sv, err := tx.Read(src)
					if err != nil {
						return err
					}
					dv, err := tx.Read(dst)
					if err != nil {
						return err
					}
					tx.Write(src, enc(dec(sv)+1))
					tx.Write(dst, enc(dec(dv)+1))
					return nil
				})
				if err != nil {
					t.Errorf("tx: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestReadYourOwnWrites(t *testing.T) {
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 1})
	defer cl.Close()
	cl.Load("x", enc(1))
	c := cl.NewClient()
	tx := c.Begin()
	tx.Write("x", enc(42))
	v, err := tx.Read("x")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if dec(v) != 42 {
		t.Fatalf("read-your-write = %d, want 42", dec(v))
	}
	tx.Abort()
}

func TestAbortReleasesNothingCommitted(t *testing.T) {
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 1})
	defer cl.Close()
	cl.Load("x", enc(5))
	c := cl.NewClient()
	tx := c.Begin()
	tx.Write("x", enc(99))
	tx.Abort()

	time.Sleep(5 * time.Millisecond)
	tx2 := c.Begin()
	v, err := tx2.Read("x")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	tx2.Abort()
	if dec(v) != 5 {
		t.Fatalf("aborted write leaked: x=%d want 5", dec(v))
	}
}

func TestConflictingWritersOneAborts(t *testing.T) {
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 1})
	defer cl.Close()
	cl.Load("x", enc(0))

	// Two transactions read the same version then both try to write:
	// serializability demands at most one commit... in MVTSO both may
	// commit only if ordered without a conflict; with both reading the
	// old version and writing, the lower-timestamped write invalidates
	// the higher-timestamped read unless ordered correctly. Run many
	// rounds and verify the final count never exceeds the commits.
	c1 := cl.NewClient()
	c2 := cl.NewClient()
	commits := 0
	// A round may legitimately abort BOTH writers: each invalidates the
	// other, and with concurrent replica ingest the first abort's
	// writeback can still be in flight when the second transaction
	// validates. That outcome is serializable (trivially), so after the
	// ten genuinely concurrent rounds, extra rounds run in a degraded
	// settle mode (pauses around the commits so writebacks drain) until
	// something commits; what must never happen is the value outrunning
	// the commits.
	settle := time.Duration(0)
	pause := 10 * time.Millisecond
	if raceEnabled {
		pause = 60 * time.Millisecond // instrumented crypto is ~10x slower
	}
	for round := 0; round < 30 && (round < 10 || commits == 0); round++ {
		if round >= 10 {
			settle = pause
			time.Sleep(settle)
		}
		t1 := c1.Begin()
		t2 := c2.Begin()
		v1, err := t1.Read("x")
		if err != nil {
			t.Fatalf("t1 read: %v", err)
		}
		v2, err := t2.Read("x")
		if err != nil {
			t.Fatalf("t2 read: %v", err)
		}
		t1.Write("x", enc(dec(v1)+1))
		t2.Write("x", enc(dec(v2)+1))
		err1 := t1.Commit()
		if settle > 0 {
			// Degraded mode: let t1's writeback finish before t2 validates.
			time.Sleep(settle)
		}
		err2 := t2.Commit()
		if err1 == nil {
			commits++
		}
		if err2 == nil {
			commits++
		}
	}
	// Writebacks are fire-and-forget and replicas process messages
	// concurrently, so a read issued immediately after Commit may still
	// observe a prepared version of an aborted transaction speculatively
	// (the paper's eager reads). A genuine leak is permanent: if an
	// aborted write survived as a committed version the value would stay
	// too high forever, so read until the speculative state drains.
	var v []byte
	for attempt := 0; ; attempt++ {
		tx := c1.Begin()
		var err error
		v, err = tx.Read("x")
		if err != nil {
			t.Fatalf("final read: %v", err)
		}
		tx.Abort()
		if int(dec(v)) <= commits {
			break
		}
		if attempt >= 50 {
			t.Fatalf("final value %d exceeds committed increments %d", dec(v), commits)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if commits == 0 {
		t.Fatalf("no transaction ever committed")
	}
}

// TestClientLatencyHistogramsRecord drives one read-modify-write through
// a live cluster and asserts the client's latency histograms actually
// observed it. This is the end-to-end regression guard for the
// metrics-tax gating (basilvet BV005): the client only reads the clock
// when its registry is enabled, and this test pins that the enabled side
// still records read, commit, and whole-transaction samples.
func TestClientLatencyHistogramsRecord(t *testing.T) {
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 1})
	defer cl.Close()
	cl.Load("x", enc(1))

	c := cl.NewClient()
	tx := c.Begin()
	if _, err := tx.Read("x"); err != nil {
		t.Fatalf("read: %v", err)
	}
	tx.Write("x", enc(2))
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	counts := map[string]uint64{}
	for _, h := range c.Inner().Metrics().Snapshot().Hists {
		counts[h.Name] += h.Hist.Count
	}
	for _, name := range []string{
		"basil_client_read_latency_seconds",
		"basil_client_commit_latency_seconds",
		"basil_client_txn_latency_seconds",
	} {
		if counts[name] == 0 {
			t.Errorf("%s recorded no samples after a committed transaction", name)
		}
	}
}
