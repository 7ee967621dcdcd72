package scenario

import (
	"time"

	"repro/internal/benchharness"
	"repro/internal/client"
)

// Matrix is the named production-scenario suite. Steady rates are
// calibrated for the repo's reference single-core host (closed-loop
// saturation is roughly 200 tx/s there — see BENCH_admission.json) and
// offer a comfortable fraction of capacity, so SLO misses indict the
// storm, not the host; race builds scale them through DefaultTuning.
// The overload ramp is instead scaled to the capacity a probe measures
// on the host it runs on (Scenario.PeakFromCapacity), so it blows past
// capacity on any host.
func Matrix() []Scenario {
	return []Scenario{
		{
			Name: "baseline",
			Desc: "steady open-loop load, no chaos: the SLO floor every storm is judged against",
			Keys: 512, ReadOps: 1, WriteOps: 1, EquivReplica: -1,
			Load: benchharness.RunConfig{
				Phases:  []benchharness.Phase{{Dur: 8 * time.Second, StartRate: 60, EndRate: 60}},
				Clients: 8, MaxPending: 128,
			},
			SLO: SLO{CalmP99Ms: 400, MinCommits: 300, MaxDropFrac: 0.01},
		},
		{
			Name: "ramp-to-overload",
			Desc: "arrival rate ramps to ~3x capacity; overload must surface as explicit backpressure, not silent collapse",
			Keys: 512, ReadOps: 1, WriteOps: 1, EquivReplica: -1,
			// The rates are relative: the peak becomes 3x the probed
			// capacity and the calm phase a quarter of it.
			Load: benchharness.RunConfig{
				Phases: []benchharness.Phase{
					{Dur: 2 * time.Second, StartRate: 50, EndRate: 50},
					{Dur: 3 * time.Second, StartRate: 50, EndRate: 600},
					{Dur: 1500 * time.Millisecond, StartRate: 600, EndRate: 600},
				},
				Clients: 8, MaxPending: 192,
				StormStart: 2 * time.Second, StormEnd: 6500 * time.Millisecond,
			},
			PeakFromCapacity: 3,
			SLO:              SLO{CalmP99Ms: 400, MinCommits: 200, RequireBackpressure: true},
		},
		{
			Name: "kill-mid-storm",
			Desc: "one replica crashes under load and restarts from its WAL; no committed write may be lost",
			Keys: 384, ReadOps: 1, WriteOps: 1, EquivReplica: -1, Durable: true,
			Load: benchharness.RunConfig{
				Phases:  []benchharness.Phase{{Dur: 8 * time.Second, StartRate: 35, EndRate: 35}},
				Clients: 8, MaxPending: 128,
				StormStart: 2500 * time.Millisecond, StormEnd: 5 * time.Second,
			},
			Events: []Event{
				KillReplica(2500*time.Millisecond, 0, 4),
				RestartReplica(5*time.Second, 0, 4),
			},
			SLO: SLO{CalmP99Ms: 500, MinCommits: 120, RecoverWithin: 2500 * time.Millisecond},
		},
		{
			Name: "slow-disk",
			Desc: "every WAL fsync slows by 6ms mid-run (group commit absorbs it or the tail shows it), then heals",
			Keys: 384, ReadOps: 1, WriteOps: 1, EquivReplica: -1, Durable: true,
			Load: benchharness.RunConfig{
				Phases:  []benchharness.Phase{{Dur: 8 * time.Second, StartRate: 35, EndRate: 35}},
				Clients: 8, MaxPending: 128,
				StormStart: 2500 * time.Millisecond, StormEnd: 5 * time.Second,
			},
			Events: []Event{
				SlowDisk(2500*time.Millisecond, 6*time.Millisecond),
				FastDisk(5 * time.Second),
			},
			SLO: SLO{CalmP99Ms: 500, StormP99Ms: 2000, MinCommits: 140, RecoverWithin: 2500 * time.Millisecond},
		},
		{
			Name: "partition-heal",
			Desc: "one replica is partitioned away (fast path dies, slow path carries on) and later heals",
			Keys: 512, ReadOps: 1, WriteOps: 1, EquivReplica: -1,
			Load: benchharness.RunConfig{
				Phases:  []benchharness.Phase{{Dur: 8 * time.Second, StartRate: 40, EndRate: 40}},
				Clients: 8, MaxPending: 128,
				StormStart: 2500 * time.Millisecond, StormEnd: 5 * time.Second,
			},
			Events: []Event{
				Partition(2500*time.Millisecond, 0, 5),
				Heal(5 * time.Second),
			},
			SLO: SLO{CalmP99Ms: 400, MinCommits: 150, RecoverWithin: 2500 * time.Millisecond},
		},
		{
			Name: "equivocating-replica",
			Desc: "a Byzantine replica sends different ST1 votes to different recipients; serializability must hold anyway",
			Keys: 512, ReadOps: 1, WriteOps: 1, EquivReplica: 5,
			Load: benchharness.RunConfig{
				Phases:  []benchharness.Phase{{Dur: 8 * time.Second, StartRate: 40, EndRate: 40}},
				Clients: 8, MaxPending: 128,
				StormStart: 2500 * time.Millisecond, StormEnd: 5 * time.Second,
			},
			Events: []Event{
				ArmEquivocation(2500 * time.Millisecond),
				DisarmEquivocation(5 * time.Second),
			},
			SLO: SLO{CalmP99Ms: 400, MinCommits: 150},
		},
		{
			Name: "spammer-honest-mix",
			Desc: "a stall-early spam client floods a bounded shard; admission must shed it while honest traffic commits",
			Keys: 384, ReadOps: 1, WriteOps: 1, EquivReplica: -1,
			DispatchQueue: 24, DeltaMicros: 250_000, CheckpointEvery: 100 * time.Millisecond,
			Load: benchharness.RunConfig{
				Phases:  []benchharness.Phase{{Dur: 8 * time.Second, StartRate: 30, EndRate: 30}},
				Clients: 8, MaxPending: 128,
				Byz: benchharness.Byzantine{Clients: 1, Mode: client.FaultStallEarly, Fraction: 1,
					Rate: 3000, Gen: benchharness.BlindWrites{Keys: 512}},
			},
			SLO: SLO{CalmP99Ms: 900, MinCommits: 100, RequireSheds: true},
		},
	}
}

// Smoke is the seeded subset that runs inside the regular test suite:
// short, low-rate versions of the calm baseline and the partition storm,
// tuned so a race build on a single core still meets its scaled SLOs.
func Smoke() []Scenario {
	return []Scenario{
		{
			Name: "smoke-baseline",
			Desc: "short steady run, no chaos",
			Keys: 128, ReadOps: 1, WriteOps: 1, EquivReplica: -1,
			Load: benchharness.RunConfig{
				Phases:  []benchharness.Phase{{Dur: 2500 * time.Millisecond, StartRate: 30, EndRate: 30}},
				Clients: 4, MaxPending: 64, Bin: 200 * time.Millisecond,
			},
			SLO: SLO{CalmP99Ms: 500, MinCommits: 40, MaxDropFrac: 0.02},
		},
		{
			Name: "smoke-partition-heal",
			Desc: "short partition storm over one replica",
			Keys: 128, ReadOps: 1, WriteOps: 1, EquivReplica: -1,
			Load: benchharness.RunConfig{
				Phases:  []benchharness.Phase{{Dur: 4 * time.Second, StartRate: 25, EndRate: 25}},
				Clients: 4, MaxPending: 64, Bin: 200 * time.Millisecond,
				StormStart: 1200 * time.Millisecond, StormEnd: 2400 * time.Millisecond,
			},
			Events: []Event{
				Partition(1200*time.Millisecond, 0, 5),
				Heal(2400 * time.Millisecond),
			},
			SLO: SLO{CalmP99Ms: 500, MinCommits: 30, RecoverWithin: 1500 * time.Millisecond},
		},
	}
}
