package scenario

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/benchharness"
	"repro/internal/workload"
)

// fakeSystem is a deterministic in-memory System whose transactions
// take a fixed service time, for open-loop accounting tests.
type fakeSystem struct {
	service time.Duration
	commits atomic.Uint64
}

func (s *fakeSystem) Name() string                     { return "fake" }
func (s *fakeSystem) Load(string, []byte)              {}
func (s *fakeSystem) Close()                           {}
func (s *fakeSystem) NewSession() benchharness.Session { return fakeSession{s} }

type fakeSession struct{ s *fakeSystem }

func (f fakeSession) Begin() benchharness.SysTx { return fakeTx{f.s} }

type fakeTx struct{ s *fakeSystem }

func (t fakeTx) Read(string) ([]byte, error) { return nil, nil }
func (t fakeTx) Write(string, []byte)        {}
func (t fakeTx) Abort()                      {}
func (t fakeTx) Commit() error {
	time.Sleep(t.s.service)
	t.s.commits.Add(1)
	return nil
}

// plainGen is a trivial generator for the fake system.
type plainGen struct{}

func (plainGen) Name() string                  { return "plain" }
func (plainGen) Populate(func(string, []byte)) {}
func (plainGen) Next(rng *rand.Rand) workload.TxnFunc {
	return workload.TxnFunc{Name: "plain", Body: func(tx workload.Tx) error {
		tx.Write("k", nil)
		return nil
	}}
}

// TestOpenLoopQueueingDelayVisible is the satellite regression for the
// harness's central property: when arrivals outpace service capacity,
// the measured tail must include the time transactions waited for a
// session — a closed-loop runner can never show this, because it only
// offers load as fast as the system absorbs it. One session serving
// 2ms transactions has capacity 500/s; offering 2000/s must drive p99
// far above the 2ms service time.
func TestOpenLoopQueueingDelayVisible(t *testing.T) {
	sys := &fakeSystem{service: 2 * time.Millisecond}
	res := benchharness.Run(sys, plainGen{}, benchharness.RunConfig{
		Phases:  []benchharness.Phase{{Dur: time.Second, StartRate: 2000, EndRate: 2000}},
		Clients: 1, MaxPending: 512, Seed: 7,
	})
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	// Queueing must dominate: with a 512-deep queue at 4x overload the
	// wait grows to hundreds of milliseconds; anything near the 2ms
	// service time means latency was measured from dispatch, not from
	// intended arrival.
	if res.P99LatMs < 20 {
		t.Fatalf("p99 %.2fms does not include queueing delay (service time 2ms)", res.P99LatMs)
	}
	if res.Dropped == 0 {
		t.Fatal("4x overload over a bounded queue must drop arrivals explicitly")
	}
	if res.Offered != res.Commits+res.Dropped+res.AppAborts+res.Starved+res.Unknowns {
		t.Fatalf("arrival accounting leaks: offered %d != %d commits + %d dropped + %d appAborts + %d starved + %d unknown",
			res.Offered, res.Commits, res.Dropped, res.AppAborts, res.Starved, res.Unknowns)
	}
}

// TestOpenLoopCalmLatencyLow is the complement: under light load the
// same accounting must NOT invent queueing delay.
func TestOpenLoopCalmLatencyLow(t *testing.T) {
	sys := &fakeSystem{service: 2 * time.Millisecond}
	res := benchharness.Run(sys, plainGen{}, benchharness.RunConfig{
		Phases:  []benchharness.Phase{{Dur: time.Second, StartRate: 50, EndRate: 50}},
		Clients: 4, MaxPending: 64, Seed: 7,
	})
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	if res.P99LatMs > 50 {
		t.Fatalf("p99 %.2fms under light load; queueing delay invented", res.P99LatMs)
	}
	if res.Dropped != 0 {
		t.Fatalf("%d drops under light load", res.Dropped)
	}
}

// TestRecoveryMs pins the bins-based recovery measurement.
func TestRecoveryMs(t *testing.T) {
	bin := 250 * time.Millisecond
	// 16 bins: warmup ramp, calm ~10/bin, storm collapse, recovery at
	// bin 12, plus a final partial bin the search must ignore.
	bins := []uint64{2, 5, 10, 10, 10, 10, 0, 0, 1, 2, 3, 4, 9, 10, 10, 3}
	stormStart, stormEnd := 1500*time.Millisecond, 2*time.Second
	got := recoveryMs(bins, bin, stormStart, stormEnd, 0.7)
	// Baseline = mean(bins[2:6]) = 10, threshold 7; the first qualifying
	// 3-bin window starts at bin 11 (4,9,10 -> mean 7.67):
	// 11*250ms - 2000ms = 750ms.
	if got != 750 {
		t.Fatalf("recoveryMs = %.0f, want 750", got)
	}
	// Never recovering reports -1.
	flat := []uint64{2, 5, 10, 10, 10, 10, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1}
	if got := recoveryMs(flat, bin, stormStart, stormEnd, 0.7); got != -1 {
		t.Fatalf("recoveryMs (never) = %.0f, want -1", got)
	}
	// No storm window: not applicable.
	if got := recoveryMs(bins, bin, 0, 0, 0.7); got != 0 {
		t.Fatalf("recoveryMs (no storm) = %.0f, want 0", got)
	}
}

// TestVerdictChecks pins the SLO evaluation: every non-zero clause
// becomes a named check and any failing clause fails the verdict.
func TestVerdictChecks(t *testing.T) {
	in := verdictInput{
		load: benchharness.Result{
			Commits: 500, Offered: 520, Dropped: 5,
			CalmP99Ms: 80, StormP99Ms: 400, CalmCount: 300, StormCount: 150,
			Shed: 3, Overloads: 2,
		},
		recoveryMs: 700,
		tuning:     Tuning{RateScale: 1, LatScale: 1, SpamScale: 1},
	}
	slo := SLO{
		CalmP99Ms: 100, StormP99Ms: 500, MinCommits: 400,
		RecoverWithin: time.Second, RequireSheds: true,
		RequireBackpressure: true, MaxDropFrac: 0.05,
	}
	v := slo.evaluate(in)
	if !v.Pass {
		t.Fatalf("verdict failed: %+v", v.Checks)
	}
	wantChecks := 9 // serializable, unknowns, min-commits, calm, storm, recovery, sheds, backpressure, drop-frac
	if len(v.Checks) != wantChecks {
		t.Fatalf("%d checks, want %d: %+v", len(v.Checks), wantChecks, v.Checks)
	}

	// A single breached clause must flip the verdict.
	in.load.CalmP99Ms = 150
	if v := slo.evaluate(in); v.Pass {
		t.Fatal("breached calm p99 still passed")
	}
	in.load.CalmP99Ms = 80

	// Race tuning widens the budget back to passing.
	in.tuning = Tuning{RateScale: 1, LatScale: 8, SpamScale: 1}
	in.load.CalmP99Ms = 150
	if v := slo.evaluate(in); !v.Pass {
		t.Fatalf("race-scaled budget should absorb 150ms: %+v", v.Checks)
	}
}
