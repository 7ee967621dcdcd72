package benchharness

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/basil"
	"repro/internal/client"
	"repro/internal/txbase"
	"repro/internal/workload"
)

func quickRun() RunConfig {
	return RunConfig{Clients: 3, Warmup: 50 * time.Millisecond, Measure: 300 * time.Millisecond}
}

func smallYCSB() workload.Generator {
	return workload.NewYCSB(workload.YCSBConfig{Keys: 500, ReadOps: 2, WriteOps: 2})
}

func TestRunBasilYCSB(t *testing.T) {
	gen := smallYCSB()
	sys := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: 4})
	defer sys.Close()
	r := Run(sys, gen, quickRun())
	if r.Commits == 0 {
		t.Fatalf("no commits: %+v", r)
	}
	if r.Throughput <= 0 || r.MeanLatMs <= 0 {
		t.Fatalf("bad stats: %+v", r)
	}
	if share := sys.FastPathShare(); share == 0 {
		t.Errorf("expected some fast-path commits, share=0")
	}
}

func TestRunTapirYCSB(t *testing.T) {
	gen := smallYCSB()
	sys := NewTapir(gen, 1)
	defer sys.Close()
	r := Run(sys, gen, quickRun())
	if r.Commits == 0 {
		t.Fatalf("no commits: %+v", r)
	}
}

func TestRunTxBasePBFT(t *testing.T) {
	gen := smallYCSB()
	sys := NewTxBase(gen, txbase.KindPBFT, 1)
	defer sys.Close()
	r := Run(sys, gen, quickRun())
	if r.Commits == 0 {
		t.Fatalf("no commits: %+v", r)
	}
}

func TestRunTxBaseHotStuff(t *testing.T) {
	gen := smallYCSB()
	sys := NewTxBase(gen, txbase.KindHotStuff, 1)
	defer sys.Close()
	r := Run(sys, gen, quickRun())
	if r.Commits == 0 {
		t.Fatalf("no commits: %+v", r)
	}
}

func TestRunSmallbankBasil(t *testing.T) {
	gen := workload.NewSmallbank(workload.SmallbankConfig{Accounts: 2_000})
	sys := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: 4})
	defer sys.Close()
	r := Run(sys, gen, quickRun())
	if r.Commits == 0 {
		t.Fatalf("no commits: %+v", r)
	}
}

func TestRunRetwisBasil(t *testing.T) {
	gen := workload.NewRetwis(workload.RetwisConfig{Users: 500})
	sys := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: 4})
	defer sys.Close()
	r := Run(sys, gen, quickRun())
	if r.Commits == 0 {
		t.Fatalf("no commits: %+v", r)
	}
}

func TestRunTPCCBasil(t *testing.T) {
	gen := workload.NewTPCC(workload.TPCCConfig{
		Warehouses: 1, Districts: 2, CustomersPer: 30, Items: 100, StockOrders: 2,
	})
	sys := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: 4})
	defer sys.Close()
	r := Run(sys, gen, quickRun())
	if r.Commits == 0 {
		t.Fatalf("no commits: %+v", r)
	}
}

func TestRunWithStallLateByzClients(t *testing.T) {
	gen := workload.NewYCSB(workload.YCSBConfig{Keys: 200, ReadOps: 2, WriteOps: 2, Theta: 0.9})
	sys := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: 4})
	defer sys.Close()
	r := Run(sys, gen, RunConfig{
		Clients: 3, Warmup: 50 * time.Millisecond, Measure: 400 * time.Millisecond,
		Byz: Byzantine{Clients: 2, Mode: client.FaultStallLate, Fraction: 0.5},
	})
	if r.Commits == 0 {
		t.Fatalf("correct clients starved entirely: %+v", r)
	}
	if r.FaultyTxs == 0 {
		t.Fatalf("no faulty transactions were issued")
	}
}

func TestRunWithEquivForced(t *testing.T) {
	gen := workload.NewYCSB(workload.YCSBConfig{Keys: 200, ReadOps: 2, WriteOps: 2, Theta: 0.9})
	// Under a fully loaded machine (e.g. the whole bench suite running
	// concurrently) a single short window can starve spuriously; retry
	// with growing windows before declaring a liveness failure.
	for attempt := 1; attempt <= 3; attempt++ {
		sys := NewBasil(gen, basil.Options{F: 1, Shards: 1, BatchSize: 4,
			PhaseTimeout: 25 * time.Millisecond, AllowUnvalidatedST2: true})
		r := Run(sys, gen, RunConfig{
			Clients: 3, Warmup: 100 * time.Millisecond,
			Measure: time.Duration(attempt) * time.Second,
			Byz:     Byzantine{Clients: 1, Mode: client.FaultEquivForced, Fraction: 0.5},
		})
		sys.Close()
		if r.Commits > 0 {
			return
		}
		if attempt == 3 {
			t.Fatalf("correct clients starved entirely after %d attempts: %+v", attempt, r)
		}
	}
}

// peakFakeSystem is a deterministic System whose per-transaction service
// time depends on the configured client count, shaping a non-monotonic
// throughput curve for FindPeak tests. mu guards clients/service:
// sessions are created from the harness while earlier sessions' commit
// goroutines are already reading the service time.
type peakFakeSystem struct {
	serviceOf func(clients int) time.Duration
	mu        sync.Mutex
	clients   int
	service   time.Duration
}

func (s *peakFakeSystem) Name() string        { return "peak-fake" }
func (s *peakFakeSystem) Load(string, []byte) {}
func (s *peakFakeSystem) Close()              {}
func (s *peakFakeSystem) NewSession() Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clients++
	s.service = s.serviceOf(s.clients)
	return peakFakeSession{s}
}

func (s *peakFakeSystem) serviceTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.service
}

type peakFakeSession struct{ s *peakFakeSystem }

func (f peakFakeSession) Begin() SysTx { return peakFakeTx{f.s} }

type peakFakeTx struct{ s *peakFakeSystem }

func (t peakFakeTx) Read(string) ([]byte, error) { return nil, nil }
func (t peakFakeTx) Write(string, []byte)        {}
func (t peakFakeTx) Abort()                      {}
func (t peakFakeTx) Commit() error {
	time.Sleep(t.s.serviceTime())
	return nil
}

// TestFindPeakNonMonotonic pins FindPeak's contract on a curve that
// rises then collapses: the peak must be the interior maximum, not the
// first or last point of the sweep. The fake system's service time
// balloons past 8 clients, modeling contention collapse.
func TestFindPeakNonMonotonic(t *testing.T) {
	makeSystem := func() System {
		return &peakFakeSystem{serviceOf: func(clients int) time.Duration {
			switch {
			case clients <= 4:
				return 2 * time.Millisecond // up to ~500/s/client region
			case clients <= 8:
				return 3 * time.Millisecond
			default:
				return 40 * time.Millisecond // collapse: 16 clients -> ~400/s total
			}
		}}
	}
	gen := plainWriteGen{}
	cfg := RunConfig{Warmup: 20 * time.Millisecond, Measure: 250 * time.Millisecond, Seed: 3}
	best, all := FindPeak(makeSystem, gen, []int{4, 8, 16}, cfg)
	if len(all) != 3 {
		t.Fatalf("sweep ran %d points, want 3", len(all))
	}
	if best.Clients != 8 {
		for _, r := range all {
			t.Logf("clients=%d tput=%.0f", r.Clients, r.Throughput)
		}
		t.Fatalf("peak found at %d clients, want the interior maximum at 8", best.Clients)
	}
	if best.Throughput < all[0].Throughput || best.Throughput < all[2].Throughput {
		t.Fatalf("reported peak %.0f below a swept point (%.0f, %.0f)",
			best.Throughput, all[0].Throughput, all[2].Throughput)
	}
}

// plainWriteGen is a no-op workload for fake-system tests.
type plainWriteGen struct{}

func (plainWriteGen) Name() string                  { return "plain-write" }
func (plainWriteGen) Populate(func(string, []byte)) {}
func (plainWriteGen) Next(rng *rand.Rand) workload.TxnFunc {
	return workload.TxnFunc{Name: "w", Body: func(tx workload.Tx) error {
		tx.Write("k", nil)
		return nil
	}}
}
