// Package scenario is the production-scenario harness: it subjects a
// running Basil cluster to open-loop load (Poisson arrivals at a
// configured, possibly ramping rate — latency measured from each
// transaction's *intended* arrival time, so queueing delay is visible
// instead of hidden by closed-loop self-throttling), composes chaos
// storms over the cluster from the repo's fault primitives (crash and
// WAL restart, injected fsync latency, network partition, replica-side
// vote equivocation, Byzantine spam), and renders an explicit pass/fail
// verdict for each named scenario against its SLOs: tail latency held,
// no committed write lost (the internal/verify DSG oracle over the full
// run plus a final-read audit), recovery time back to baseline
// throughput, and admission behavior within budget.
//
// The named matrix (Matrix) is emitted as BENCH_scenarios.json by
// `basil-bench -experiment scenarios`; a seeded smoke subset (Smoke)
// runs in the regular test suite. Every scenario reproduces from its
// recorded seed: arrivals, workload draws and chaos decisions all
// derive from it (see internal/faults for the identity-derived fault
// streams).
//
// Ownership: a Runtime and its injectors are owned by RunScenario for
// the duration of one run; the load runs on benchharness.Run, whose
// goroutines are joined when it returns, and the chaos schedule
// goroutine is stop-bound and joined before the verdict is computed.
package scenario

import (
	"time"

	"repro/internal/benchharness"
)

// Tuning scales a scenario to the build and host it runs on. The race
// detector slows the crypto-heavy protocol by roughly an order of
// magnitude, which is a property of the instrumentation, not of the
// system under test — race builds offer less load and accept looser
// tails, exactly like the repo's timing-sensitive tests.
type Tuning struct {
	// RateScale multiplies every phase's arrival rate (and the commit
	// floor derived from it).
	RateScale float64
	// LatScale multiplies every latency SLO and the recovery deadline.
	LatScale float64
	// SpamScale multiplies spammer pacing.
	SpamScale float64
}

// DefaultTuning returns the tuning for this build: unity without the
// race detector, scaled-down rates and relaxed tails with it.
func DefaultTuning() Tuning {
	if raceEnabled {
		return Tuning{RateScale: 0.2, LatScale: 8, SpamScale: 0.25}
	}
	return Tuning{RateScale: 1, LatScale: 1, SpamScale: 1}
}

// Scenario is one named production scenario: a cluster shape, an
// open-loop load profile, a chaos schedule and the SLOs the run must
// meet.
type Scenario struct {
	Name string
	Desc string

	// Workload shape: YCSB-style transactions of ReadOps reads and
	// WriteOps read-modify-writes over Keys keys.
	Keys     uint64
	ReadOps  int
	WriteOps int

	// Cluster shape. Durable gives every replica a write-ahead log under
	// a per-run temp dir (required by crash-restart and slow-disk
	// storms). EquivReplica, if >= 0, installs the equivocating-replica
	// strategy on that index of shard 0 (armed only by a chaos event).
	Shards          int
	Durable         bool
	DispatchQueue   int
	DeltaMicros     uint64
	CheckpointEvery time.Duration
	EquivReplica    int

	// Load is the open-arrival profile, with any Byzantine client-side
	// spam that runs for the whole scenario in Load.Byz (see
	// internal/benchharness/admission.go for why spam is write-only and
	// paced).
	Load benchharness.RunConfig
	// PeakFromCapacity, if positive, makes the profile's rates relative
	// to the cluster rather than to one host: before the load runs, a
	// short closed-loop probe with Load.Clients sessions measures the
	// same cluster's capacity, and every phase rate is rescaled so the
	// highest one is PeakFromCapacity times it. Tuning.RateScale does not
	// apply to such a profile; the probe already measures the build.
	PeakFromCapacity float64

	Events []Event
	SLO    SLO
}
