package scenario

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/basil"
	"repro/internal/benchharness"
	"repro/internal/faults"
	"repro/internal/replica"
	"repro/internal/types"
	"repro/internal/verify"
	"repro/internal/workload"
)

// Result is one scenario's full outcome: the load driver's aggregate, the
// protocol-level evidence the verdict consumed, and the verdict itself.
type Result struct {
	Name string
	Desc string
	Seed int64

	Load          benchharness.Result
	CapacityTxs   float64 // the capacity probe's tx/s (Scenario.PeakFromCapacity), else 0
	Unresolved    int
	Audited       int
	RecoveryMs    float64
	FastPathShare float64
	Events        []string
	EventErrs     []string

	Verdict Verdict
}

// RunScenario builds the scenario's cluster, runs its open-loop load and
// chaos schedule, resolves every unknown outcome through the recovery
// protocol, audits final reads against the DSG oracle, and returns the
// verdict. The run is reproducible from (scenario, seed, tuning): load
// arrivals, workload draws, spam pacing and every chaos decision derive
// from the seed.
func RunScenario(sc Scenario, seed int64, tn Tuning) (Result, error) {
	if seed == 0 {
		seed = 1
	}
	if tn.RateScale <= 0 {
		tn = DefaultTuning()
	}

	// Scale the offered load to the build.
	load := sc.Load
	load.Seed = seed
	load.Phases = append([]benchharness.Phase(nil), sc.Load.Phases...)
	for i := range load.Phases {
		load.Phases[i].StartRate *= tn.RateScale
		load.Phases[i].EndRate *= tn.RateScale
	}
	load.Byz.Rate = int(float64(load.Byz.Rate) * tn.SpamScale)

	rt := &Runtime{
		Chaos: faults.NewChaos(seed),
		Disk:  &faults.DiskChaos{},
		Seed:  seed,
	}

	opts := basil.Options{
		F:               1,
		Shards:          max(sc.Shards, 1),
		BatchSize:       benchharness.BatchSize,
		VerifyWorkers:   2,
		DispatchQueue:   sc.DispatchQueue,
		DeltaMicros:     sc.DeltaMicros,
		CheckpointEvery: sc.CheckpointEvery,
		PhaseTimeout:    100 * time.Millisecond,
		RetryTimeout:    400 * time.Millisecond,
		Seed:            seed,
	}
	if raceEnabled {
		opts.PhaseTimeout *= 4
		opts.RetryTimeout *= 4
	}
	if sc.Durable {
		dir, err := os.MkdirTemp("", "scenario-"+sc.Name+"-")
		if err != nil {
			return Result{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		defer os.RemoveAll(dir)
		opts.DataDir = dir
		opts.WALSyncDelay = rt.Disk.Delay
	}
	if sc.EquivReplica >= 0 {
		rt.Equiv = faults.NewEquivocatingReplica(seed)
		target := int32(sc.EquivReplica)
		opts.ReplicaByzantine = func(shard, index int32) replica.ByzantineStrategy {
			if shard == 0 && index == target {
				return rt.Equiv
			}
			return nil
		}
	}

	cl := basil.NewCluster(opts)
	defer cl.Close()
	rt.Cluster = cl
	cl.Net().SetPolicy(rt.Chaos.Policy())

	gen := workload.NewYCSB(workload.YCSBConfig{
		Keys: sc.Keys, ReadOps: sc.ReadOps, WriteOps: sc.WriteOps, ValueSize: 32,
	})
	sys := &benchharness.BasilSystem{C: cl, Label: sc.Name}
	benchharness.Populate(sys, gen)

	var checker verify.Checker
	var probe benchharness.Result
	if sc.PeakFromCapacity > 0 {
		probe = benchharness.Run(sys, gen, benchharness.RunConfig{
			Clients: load.Clients, Warmup: 500 * time.Millisecond, Measure: 2 * time.Second, Seed: seed,
		})
		if probe.Throughput <= 0 {
			return Result{}, fmt.Errorf("scenario %s: capacity probe committed nothing", sc.Name)
		}
		scalePeak(load.Phases, sc.PeakFromCapacity*probe.Throughput)
		// The probe's commits are history the final-read audit sees.
		for _, m := range probe.Metas {
			checker.Add(verify.FromMeta(m))
		}
	}

	// The storm: chaos schedule over the open-loop run.
	stopChaos := make(chan struct{})
	var chaosWG sync.WaitGroup
	start := time.Now()
	runSchedule(rt, sc.Events, start, stopChaos, &chaosWG)

	out := benchharness.Run(sys, gen, load)

	close(stopChaos)
	chaosWG.Wait()

	// Quiesce: release every injector so the post-run resolution and
	// audit see a healthy cluster (the storm itself is already over).
	rt.Chaos.Heal()
	rt.Chaos.SetDrop(0)
	rt.Disk.Disarm()
	if rt.Equiv != nil {
		rt.Equiv.Arm(false)
	}

	// Resolve every unknown outcome through the recovery protocol: an
	// unknown that committed must count in the DSG. Unknowns can depend
	// on each other, so the sweep repeats — finishing one transaction
	// unblocks replicas deferring another's vote.
	for _, m := range out.Metas {
		checker.Add(verify.FromMeta(m))
	}
	resolver := cl.NewClient()
	pending := append(probe.UnknownMetas, out.UnknownMetas...)
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

	// Final-read audit: read a sample of the key space through fresh
	// transactions and feed them to the oracle. A lost committed write
	// makes the audit read an older version at a newer timestamp, which
	// the timestamp-order check rejects.
	audited := auditReads(cl, gen, sc.Keys, &checker)

	serialErr := checker.CheckSerializable()
	if serialErr == nil {
		serialErr = checker.CheckTimestampOrderConsistent()
	}

	events, eventErrs := rt.events()
	res := Result{
		Name: sc.Name, Desc: sc.Desc, Seed: seed,
		Load:          out,
		CapacityTxs:   probe.Throughput,
		Unresolved:    len(pending),
		Audited:       audited,
		FastPathShare: sys.FastPathShare(),
		RecoveryMs:    recoveryMs(out.Bins, out.BinDur, load.StormStart, load.StormEnd, sc.SLO.RecoverFrac),
		Events:        events,
		EventErrs:     eventErrs,
	}
	res.Verdict = sc.SLO.evaluate(verdictInput{
		load:       out,
		serialErr:  serialErr,
		audited:    audited,
		unresolved: len(pending),
		recoveryMs: res.RecoveryMs,
		eventErrs:  res.EventErrs,
		hasEvents:  len(sc.Events) > 0,
		tuning:     tn,
	})
	return res, nil
}

// scalePeak rescales every phase rate in place so the highest becomes
// peak, keeping the profile's shape.
func scalePeak(phases []benchharness.Phase, peak float64) {
	var top float64
	for _, p := range phases {
		top = max(top, p.StartRate, p.EndRate)
	}
	if top <= 0 {
		return
	}
	for i := range phases {
		phases[i].StartRate *= peak / top
		phases[i].EndRate *= peak / top
	}
}

// auditReads runs read-only transactions over a key sample and adds the
// committed ones to the checker. Reads batch 8 keys per transaction,
// each retried through basil.Client.Run; the return value is how many
// audit transactions made it into the DSG.
func auditReads(cl *basil.Cluster, gen *workload.YCSB, keys uint64, checker *verify.Checker) int {
	sample := keys
	if sample > 48 {
		sample = 48
	}
	step := keys / sample
	if step == 0 {
		step = 1
	}
	audited := 0
	auditor := cl.NewClient()
	for base := uint64(0); base < sample; base += 8 {
		var last *basil.Txn
		err := auditor.Run(func(tx *basil.Txn) error {
			last = tx
			for i := base; i < base+8 && i < sample; i++ {
				if _, err := tx.Read(gen.Key(i * step % keys)); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			checker.Add(verify.FromMeta(last.Meta()))
			audited++
		}
	}
	return audited
}
