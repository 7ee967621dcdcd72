package basil_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/basil"
	"repro/internal/client"
)

// TestOverloadShedsExplicitlyAndKeepsHonestProgress saturates a shard past
// its admission cap with Byzantine line-rate spammers (stall-early: blast
// ST1 broadcasts, never finish) and checks the three load-shed promises:
//
//  1. honest clients make progress — every honest commit lands, and the
//     refusals they do see are explicit Overloaded replies, not hangs;
//  2. the dispatch queue never exceeds its configured cap (bounded state);
//  3. no committed write is lost — everything an honest client committed
//     is readable afterwards.
func TestOverloadShedsExplicitlyAndKeepsHonestProgress(t *testing.T) {
	const queue = 8
	cl := basil.NewCluster(basil.Options{
		F: 1, Shards: 1,
		// The admission cap must sit below the ingest pool's own task
		// buffer (workers*16): pool.Go blocks at that depth, so a larger
		// cap would turn saturation into mailbox backpressure before a
		// single explicit shed happens.
		DispatchQueue: queue,
		// Serial ingest: one worker per replica makes the signature check
		// the bottleneck, so a line-rate flood genuinely saturates intake.
		VerifyWorkers: 1,
		PhaseTimeout:  30 * time.Millisecond,
		RetryTimeout:  time.Second,
	})
	defer cl.Close()
	const honestClients, commitsEach = 2, 4
	for i := 0; i < honestClients; i++ {
		cl.Load(fmt.Sprintf("h%d", i), enc(0))
	}
	cl.Load("z", enc(0))

	// Byzantine flood: each spammer loops CommitFaulty(StallEarly), which
	// broadcasts an ST1 and returns without ever reading a vote — a pure
	// line-rate intake flood with abandoned transactions behind it.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// halt ends the flood and the sampler however the test ends: after a
	// failure, spammers left looping against the closed cluster would eat
	// the CPU of every later test in the package.
	var haltOnce sync.Once
	halt := func() {
		haltOnce.Do(func() { close(stop) })
		wg.Wait()
	}
	defer halt()
	for i := 0; i < 4; i++ {
		byz := cl.NewClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			inner := byz.Inner()
			for n := uint64(0); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := inner.Begin()
				tx.Write("z", enc(n))
				inner.CommitFaulty(tx, client.FaultStallEarly)
			}
		}()
	}

	// Sample the dispatch-depth gauge across the flood: it must stay at or
	// below the cap on every replica.
	var maxDepth atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < cl.ReplicaCount(); i++ {
				if d := cl.Replica(0, i).DispatchDepth(); d > maxDepth.Load() {
					maxDepth.Store(d)
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Honest clients commit through the flood, retrying on ErrTimeout —
	// the client's own Overloaded-driven backoff paces the retries.
	honest := make([]*basil.Client, honestClients)
	for i := range honest {
		honest[i] = cl.NewClient()
	}
	errCh := make(chan error, honestClients)
	for i, c := range honest {
		key := fmt.Sprintf("h%d", i)
		go func(c *basil.Client, key string) {
			for j := 1; j <= commitsEach; j++ {
				committed := false
				for attempt := 0; attempt < 100; attempt++ {
					tx := c.Begin()
					tx.Write(key, enc(uint64(j)))
					if err := tx.Commit(); err == nil {
						committed = true
						break
					}
				}
				if !committed {
					errCh <- fmt.Errorf("honest write %s=%d starved under the flood", key, j)
					return
				}
			}
			errCh <- nil
		}(c, key)
	}
	deadline := time.After(90 * time.Second)
	for range honest {
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("honest clients hung under overload instead of finishing")
		}
	}

	// Explicit-refusal check: admission is racy, so a lucky honest client
	// can land every frame in queue gaps and finish the loop above without
	// a single refusal. Probe the still-running flood until an Overloaded
	// reply is consumed — a refusal must be explicit, never a silent drop.
	probe := cl.NewClient()
	for end := time.Now().Add(60 * time.Second); probe.Stats().Overloads.Load() == 0; {
		if time.Now().After(end) {
			break
		}
		tx := probe.Begin()
		tx.Write("h0", enc(uint64(commitsEach))) // final value: keeps the lost-write check below valid
		_ = tx.Commit()
	}
	halt()

	var shed, overloads uint64
	for i := 0; i < cl.ReplicaCount(); i++ {
		shed += cl.Replica(0, i).Stats.Shed.Load()
	}
	overloads = probe.Stats().Overloads.Load()
	for _, c := range honest {
		overloads += c.Stats().Overloads.Load()
	}
	if shed == 0 {
		t.Fatal("no message shed: the flood never saturated the admission cap")
	}
	if overloads == 0 {
		t.Fatal("honest clients were never told Overloaded — refusals were silent")
	}
	if d := maxDepth.Load(); d > queue {
		t.Fatalf("dispatch depth reached %d, cap is %d", d, queue)
	}
	t.Logf("shed=%d honest_overloads=%d max_depth=%d/%d", shed, overloads, maxDepth.Load(), queue)

	// Nothing committed was lost: the flood is over, reads must return the
	// last value each honest client committed.
	reader := cl.NewClient()
	for i := 0; i < honestClients; i++ {
		tx := reader.Begin()
		v, err := tx.Read(fmt.Sprintf("h%d", i))
		if err != nil {
			t.Fatalf("read h%d after the flood: %v", i, err)
		}
		tx.Abort()
		if dec(v) != commitsEach {
			t.Fatalf("h%d = %d after the flood, want %d (committed write lost)", i, dec(v), commitsEach)
		}
	}
}
