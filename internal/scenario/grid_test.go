package scenario

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/basil"
	"repro/internal/faults"
	"repro/internal/types"
	"repro/internal/verify"
)

// TestParameterGrid sweeps the deployment grid — shard count x network
// fault rate x client count — and renders a per-cell DSG verdict: every
// cell's committed execution (including post-run-resolved unknowns)
// must be Byzantine-serializable. The grid is the cheap wide-angle
// complement to the deep named scenarios: one table-driven pass over
// the configuration corners the matrix doesn't individually storm.
func TestParameterGrid(t *testing.T) {
	txPerClient := 12
	if raceEnabled {
		txPerClient = 5
	}
	type cell struct {
		shards  int
		drop    float64
		clients int
	}
	var grid []cell
	for _, shards := range []int{1, 2} {
		for _, drop := range []float64{0, 0.02} {
			for _, clients := range []int{2, 4} {
				grid = append(grid, cell{shards, drop, clients})
			}
		}
	}
	for _, c := range grid {
		c := c
		name := fmt.Sprintf("shards=%d/drop=%.2f/clients=%d", c.shards, c.drop, c.clients)
		t.Run(name, func(t *testing.T) {
			const seed = 1701
			phase, retry := 60*time.Millisecond, 250*time.Millisecond
			if raceEnabled {
				phase, retry = 240*time.Millisecond, time.Second
			}
			cl := basil.NewCluster(basil.Options{
				F: 1, Shards: c.shards, BatchSize: 4,
				PhaseTimeout: phase, RetryTimeout: retry,
			})
			defer cl.Close()
			const nKeys = 10
			keys := make([]string, nKeys)
			for i := range keys {
				keys[i] = fmt.Sprintf("gr%02d", i)
				cl.Load(keys[i], []byte{0})
			}
			if c.drop > 0 {
				chaos := faults.NewChaos(seed)
				chaos.SetDrop(c.drop)
				cl.Net().SetPolicy(chaos.Policy())
			}

			var (
				mu       sync.Mutex
				checker  verify.Checker
				unknowns []*types.TxMeta
			)
			var wg sync.WaitGroup
			for w := 0; w < c.clients; w++ {
				w := w
				cli := cl.NewClient()
				rng := rand.New(rand.NewSource(seed + int64(w)*31))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < txPerClient; i++ {
						for attempt := 0; ; attempt++ {
							tx := cli.Begin()
							ok := true
							for _, ki := range rng.Perm(nKeys)[:2] {
								if _, err := tx.Read(keys[ki]); err != nil {
									ok = false
									break
								}
							}
							if !ok {
								tx.Abort()
							} else {
								tx.Write(keys[rng.Intn(nKeys)], []byte{byte(w), byte(i)})
								err := tx.Commit()
								if err == nil {
									mu.Lock()
									checker.Add(verify.FromMeta(tx.Meta()))
									mu.Unlock()
									break
								}
								if !errors.Is(err, basil.ErrAborted) {
									mu.Lock()
									unknowns = append(unknowns, tx.Meta())
									mu.Unlock()
									break
								}
							}
							if attempt >= 20 {
								break // starved cell traffic still yields a valid (smaller) DSG
							}
						}
					}
				}()
			}
			wg.Wait()

			// Heal and resolve unknown outcomes before the oracle runs.
			cl.Net().SetPolicy(nil)
			resolver := cl.NewClient()
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
				t.Fatalf("%d unknown outcomes unresolved", len(pending))
			}
			if checker.Len() == 0 {
				t.Fatal("cell committed nothing")
			}
			if err := checker.CheckSerializable(); err != nil {
				t.Fatalf("DSG verdict: %v", err)
			}
			if err := checker.CheckTimestampOrderConsistent(); err != nil {
				t.Fatalf("timestamp-order verdict: %v", err)
			}
		})
	}
}
