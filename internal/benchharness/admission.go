package benchharness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/basil"
	"repro/internal/client"
	"repro/internal/workload"
)

// The overload experiment (the admission-control PR's acceptance
// scenario): honest closed-loop clients share a shard with a Byzantine
// line-rate spammer — a faulty.go-style client that broadcasts signed ST1s
// and abandons them (FaultStallEarly), looping with no think time and no
// interest in replies. Its transaction body is blind writes over a private
// key range: a body with reads would throttle itself on round trips, so
// only write-only spam reaches line rate. Against the unlimited seed
// configuration (DispatchQueue < 0) the spam queues ahead of honest
// traffic without bound and honest latency/throughput degrade; against a
// limited shard the replicas shed the excess with explicit Overloaded
// replies, watermark GC charges the spammer for every abandoned prepared
// transaction it collects (admission.noteAbandoned), and once the spammer
// is a suspect, reputation soft-shedding keeps the top quarter of the
// queue available to honest traffic. The scenario therefore runs with a
// short δ and a fast checkpoint cadence so the abandon feed lands inside
// the measurement window (production cadences would score the same
// spammer, just on a 30–60s horizon).

// BlindWrites is the spammers' transaction body: one blind write over a
// private spam:N key range of Keys keys, no reads. Disjoint keys keep the
// attack a pure intake flood — honest transactions never read the
// spammer's abandoned prepared writes, so any honest degradation is
// queueing, not dependency poisoning.
type BlindWrites struct{ Keys uint64 }

// Name implements workload.Generator.
func (g BlindWrites) Name() string { return "blind-write-spam" }

// Populate implements workload.Generator: the spam range starts empty.
func (g BlindWrites) Populate(func(key string, val []byte)) {}

// Next implements workload.Generator.
func (g BlindWrites) Next(rng *rand.Rand) workload.TxnFunc {
	key := fmt.Sprintf("spam:%d", rng.Uint64()%g.Keys)
	val := make([]byte, 8)
	rng.Read(val)
	return workload.TxnFunc{Name: "spam", Body: func(tx workload.Tx) error {
		tx.Write(key, val)
		return nil
	}}
}

// AdmissionScenario is one row of the overload experiment.
type AdmissionScenario struct {
	Label         string
	DispatchQueue int // negative = admission disabled (the seed baseline)
	Spammers      int
}

// AdmissionScenarios is the canonical three-row comparison: the
// no-spammer baseline and the spammed shard with admission off vs on.
func AdmissionScenarios() []AdmissionScenario {
	return []AdmissionScenario{
		{Label: "unlimited, no spammer", DispatchQueue: -1, Spammers: 0},
		{Label: "unlimited + spammer", DispatchQueue: -1, Spammers: 1},
		{Label: "limited + spammer", DispatchQueue: 24, Spammers: 1},
	}
}

// RunAdmissionScenario builds the cluster for one scenario and runs it.
// Two ingest workers per replica keep service capacity scarce enough that
// a single line-rate spammer genuinely saturates the shard (the admission
// cap must also sit below the pool's task buffer of workers*16, where
// pool backpressure would otherwise mask explicit shedding). δ is 250ms
// with a 100ms checkpoint cadence, so the watermark trails the clock by
// 500ms and abandoned spam transactions feed the reputation scorer inside
// the run; honest attempts re-Begin with a fresh timestamp per retry and
// stay far above the watermark.
func RunAdmissionScenario(s Scale, gen workload.Generator, sc AdmissionScenario) Result {
	sys := NewBasil(gen, basil.Options{
		F: 1, Shards: 1, BatchSize: BatchSize,
		VerifyWorkers:   2,
		DispatchQueue:   sc.DispatchQueue,
		PhaseTimeout:    50 * time.Millisecond,
		DeltaMicros:     250_000,
		CheckpointEvery: 100 * time.Millisecond,
	})
	defer sys.Close()
	return Run(sys, gen, RunConfig{
		Clients: s.Clients, Warmup: s.Warmup, Measure: s.Measure,
		// No harness backoff: the client's own Overloaded-driven pacing
		// is part of what this experiment measures.
		NoBackoff: true,
		Byz: Byzantine{
			Clients: sc.Spammers, Mode: client.FaultStallEarly, Fraction: 1,
			// ~4k ST1 broadcasts/s (24k replica-frames/s on a 6-replica
			// shard) is several times this scale's honest message load:
			// enough to pin the dispatch queue and collapse the unbounded
			// baseline, while the pacing keeps the in-process attacker
			// from simply out-spinning its victims for CPU.
			Rate: 4000,
			Gen:  BlindWrites{Keys: 512},
		},
	})
}

// FigAdmission is the overload experiment table: honest throughput and
// tail latency for each scenario, with shed accounting. The row shape to
// look for: "limited + spammer" holds honest throughput near the
// no-spammer baseline with bounded p99, while "unlimited + spammer" (the
// seed configuration) degrades.
func FigAdmission(s Scale) Table {
	t := Table{Title: "Admission control: honest throughput under a line-rate spammer",
		Header: []string{"config", "tput (tx/s)", "p99 lat (ms)", "shed", "rep-shed", "overloads", "spam-st1/s"}}
	gen := s.ycsbRWU()
	for _, sc := range AdmissionScenarios() {
		r := RunAdmissionScenario(s, gen, sc)
		t.Rows = append(t.Rows, []string{
			sc.Label, f1(r.Throughput), f2(r.P99LatMs),
			fmt.Sprint(r.Shed), fmt.Sprint(r.ShedReputation),
			fmt.Sprint(r.Overloads), f1(float64(r.FaultyTxs) / r.MeasureSecs),
		})
	}
	return t
}
