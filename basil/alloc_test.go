package basil_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/basil"
	"repro/internal/workload"
)

// txnAllocBudget is the most heap, in bytes, the whole in-process cluster
// (client and six replicas) may allocate per committed YCSB-T transaction:
// 1.5 times the 19.85 KB measured when the per-transaction allocation diet
// landed, against about 67 KB before it. The collector's frequency, and
// with it the latency tail, follows this rate.
const txnAllocBudget = 29_800

// TestTxnAllocBudget runs 200 YCSB-T transactions (2 reads, 2
// read-modify-writes) through an in-process F=1 cluster after a warm-up
// and fails if the mean allocation per commit exceeds txnAllocBudget.
func TestTxnAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	cl := basil.NewCluster(basil.Options{F: 1, Shards: 1})
	defer cl.Close()
	y := workload.NewYCSB(workload.YCSBConfig{Keys: 10_000, ReadOps: 2, WriteOps: 2})
	y.Populate(cl.Load)
	c := cl.NewClient()
	rng := rand.New(rand.NewSource(1))
	run := func(n int) {
		for range n {
			fn := y.Next(rng)
			if err := c.Run(func(tx *basil.Txn) error { return fn.Body(tx) }); err != nil {
				t.Fatalf("transaction: %v", err)
			}
		}
	}
	run(50) // warm-up: MAC keys, pooled buffers, mailbox rings
	const txns = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(txns)
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / txns
	t.Logf("%.0f B allocated per committed transaction (budget %d)", per, txnAllocBudget)
	if per > txnAllocBudget {
		t.Fatalf("%.0f B allocated per committed transaction, budget %d", per, txnAllocBudget)
	}
}
