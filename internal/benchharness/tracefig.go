package benchharness

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/basil"
	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/types"
)

// stageOrder is the pipeline order the stage-breakdown table presents:
// the client lifecycle first, then the wire, then the replica ingest
// path. Span names outside this list (trace.forced markers, future
// stages) are appended alphabetically.
var stageOrder = []string{
	trace.RootSpan,
	"client.read",
	"client.prepare",
	"client.st2",
	"client.writeback",
	"client.recovery",
	"net.queue",
	"replica.dispatch_wait",
	"replica.check",
	"replica.verify",
	"replica.wal_append",
}

// TraceStageRow is one per-stage latency row of the trace breakdown —
// the numbers `make bench` records in BENCH_trace.json.
type TraceStageRow struct {
	Stage string  `json:"stage"`
	Count int     `json:"count"`
	P50Us float64 `json:"p50_us"`
	P99Us float64 `json:"p99_us"`
}

// TraceStages runs the RW-U workload through a fully sampled cluster on
// real loopback TCP (so net.queue spans exist and every trace context
// crosses the framed wire codec) and reduces the tracer's span ring to a
// per-stage latency breakdown. This is the tracer used as intended:
// where inside a transaction does the time go, stage by stage.
func TraceStages(s Scale) []TraceStageRow {
	gen := s.ycsbRWU()
	sys := NewBasilTCP(gen, basil.Options{
		F: 1, Shards: 1, BatchSize: BatchSize,
		Tracing:     true,
		TraceSample: 1,
		TraceRing:   1 << 15,
	})
	Run(sys, gen, s.runCfg())
	spans := sys.C.Tracer().Spans()
	sys.Close()

	byStage := make(map[string][]float64)
	for _, sp := range spans {
		if sp.End < sp.Start {
			continue // clock skew across goroutines; drop rather than skew p50
		}
		byStage[sp.Name] = append(byStage[sp.Name], float64(sp.End-sp.Start)/1e3)
	}
	rows := make([]TraceStageRow, 0, len(byStage))
	add := func(name string) {
		ds := byStage[name]
		if len(ds) == 0 {
			return
		}
		delete(byStage, name)
		sort.Float64s(ds)
		rows = append(rows, TraceStageRow{
			Stage: name, Count: len(ds),
			P50Us: quantileOf(ds, 0.50), P99Us: quantileOf(ds, 0.99),
		})
	}
	for _, name := range stageOrder {
		add(name)
	}
	rest := make([]string, 0, len(byStage))
	for name := range byStage {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	for _, name := range rest {
		add(name)
	}
	return rows
}

// quantileOf reads quantile q from an already-sorted sample (nearest
// rank; the sample is the whole ring, not a sketch).
func quantileOf(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// InstrumentationTax is what the instrumentation compiled into the
// replica's hot path costs when nothing is being looked at: the
// signed-prepare pipeline timed bare, with live metrics, and with a
// tracer at sample rate 0. The bound is an overhead of at most 2% for
// each instrumented arm.
type InstrumentationTax struct {
	Messages int    `json:"messages"`
	Rounds   int    `json:"rounds"`
	Bare     Spread `json:"bare_ns_per_op"`
	Metrics  Spread `json:"metrics_ns_per_op"`
	Tracer   Spread `json:"tracer_ns_per_op"`
	// MetricsOverheadPct and TracerOverheadPct are medians over the
	// rounds of the arm's cost relative to the same round's bare arm.
	// Negative values are noise; the bound caps only the positive side.
	MetricsOverheadPct float64 `json:"metrics_overhead_pct"`
	TracerOverheadPct  float64 `json:"tracer_overhead_pct"`
}

// taxRounds is how many rounds of the three arms the tax measurement
// runs over one pre-signed message set. The arm order rotates, so host
// drift lands on every arm alike. One run varies by several percent on a
// shared host, more than the tax itself, so the overheads are medians of
// per-round differences rather than one run per side.
const taxRounds = 9

// taxArm is one instrumentation configuration of the prepare pipeline.
type taxArm int

const (
	armBare    taxArm = iota
	armMetrics        // deliver-latency clock pair + store counters, live registry
	armTracer         // Start/End pairs of a rate-0 tracer
	armCount
)

// MeasureInstrumentationTax runs the three-arm prepare pipeline and
// summarizes each arm's ns per delivered prepare pair.
func MeasureInstrumentationTax(s Scale) InstrumentationTax {
	total := 2000
	if s.Measure >= 5*time.Second {
		total = 6000 // the -scale full variant
	}
	reg := cryptoutil.NewRegistry(cryptoutil.SchemeEd25519, 6, 1)
	msgs := signedPrepares(reg, total)
	var ns, pct [armCount][]float64
	for round := range taxRounds {
		var got [armCount]float64
		for i := range armCount {
			arm := (taxArm(round) + i) % armCount
			got[arm] = preparePipelineNs(reg, msgs, arm)
		}
		for arm := range armCount {
			ns[arm] = append(ns[arm], got[arm])
			pct[arm] = append(pct[arm], (got[arm]-got[armBare])/got[armBare]*100)
		}
	}
	return InstrumentationTax{
		Messages: total, Rounds: taxRounds,
		Bare: spreadOf(ns[armBare]), Metrics: spreadOf(ns[armMetrics]), Tracer: spreadOf(ns[armTracer]),
		MetricsOverheadPct: spreadOf(pct[armMetrics]).Median,
		TracerOverheadPct:  spreadOf(pct[armTracer]).Median,
	}
}

// signedPrepare is one pre-signed single-write ST1: the transaction, its
// id and a replica-key signature over the id.
type signedPrepare struct {
	meta *types.TxMeta
	id   types.TxID
	sig  types.Signature
}

// signedPrepares builds n transactions over 512 keys, disjoint within
// each run of 512, signed round-robin by the registry's six keys.
func signedPrepares(reg *cryptoutil.Registry, n int) []signedPrepare {
	msgs := make([]signedPrepare, n)
	for i := range msgs {
		m := &types.TxMeta{
			Timestamp: types.Timestamp{Time: uint64(i + 1), ClientID: 1 + uint64(i%64)},
			WriteSet:  []types.WriteEntry{{Key: fmt.Sprintf("key-%04d", i%512), Value: []byte("v")}},
			Shards:    []int32{0},
		}
		id := m.ID()
		signer := int32(i % 6)
		msgs[i] = signedPrepare{meta: m, id: id,
			sig: types.Signature{SignerID: signer, Direct: reg.Signer(signer).Sign(id[:])}}
	}
	return msgs
}

// preparePipelineNs delivers every message twice (re-delivery is
// routine) through signature verification and the store's MVTSO check
// on GOMAXPROCS workers, against a fresh store, and reports ns per
// delivered pair. The arm decides which instrumentation each delivery
// carries, threaded as replica dispatch threads it: the deliver clock
// pair around the handler only when metrics are live, the tracer's
// Start/End pairs around verification and the check always (a nil
// tracer in the other arms, as in a replica built without one).
func preparePipelineNs(reg *cryptoutil.Registry, msgs []signedPrepare, arm taxArm) float64 {
	sv := cryptoutil.NewSigVerifier(reg, len(msgs))
	st := store.New()
	var hDeliver *metrics.Histogram
	var tr *trace.Tracer
	var tc types.TraceContext
	switch arm {
	case armMetrics:
		hDeliver = liveMetrics(st)
	case armTracer:
		tr = trace.New(trace.Options{SampleRate: 0})
		tc, _ = tr.Begin() // rate 0: never sampled, like live traffic
	}
	timed := hDeliver != nil

	deliver := func(m *signedPrepare) {
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		vStart := tr.Start(tc)
		sig := m.sig
		if !sv.Verify(m.id[:], &sig) {
			panic("benchharness: bad signature")
		}
		tr.End(tc, "r0.0", "replica.verify", 0, vStart)
		cStart := tr.Start(tc)
		st.CheckAndPrepare(m.meta, m.id)
		tr.End(tc, "r0.0", "replica.check", 0, cStart)
		if timed {
			hDeliver.Since(t0)
		}
	}

	workers := runtime.GOMAXPROCS(0)
	per := len(msgs) / workers
	var seq atomic.Uint64
	var wg sync.WaitGroup
	runtime.GC() // every arm starts from the same heap, not from the last arm's garbage
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m := &msgs[int(seq.Add(1))%len(msgs)]
				deliver(m)
				deliver(m)
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / float64(per*workers)
}

// liveMetrics installs on st the instruments a replica with live
// metrics carries on its prepare path, on a private registry: the
// store's counters, and the st1 deliver-latency histogram it returns.
func liveMetrics(st *store.Store) *metrics.Histogram {
	reg := metrics.NewRegistry()
	st.SetMetrics(store.RegistryMetrics(reg))
	return reg.Histogram("basil_replica_deliver_latency_seconds", "kind", "st1")
}

// FigTrace is the tracing experiment behind `-experiment trace`: the
// per-stage latency breakdown a fully sampled cluster yields (the
// "explain the tail" table) and the instrumentation tax that keeping
// metrics and the tracer compiled into the hot path costs (the "cheap
// enough to always ship" table; each instrumented arm must stay within
// 2% of bare).
func FigTrace(s Scale) []Table {
	stages := Table{
		Title:  "Trace stage breakdown (sample rate 1, TCP loopback, RW-U)",
		Header: []string{"stage", "count", "p50 (us)", "p99 (us)"},
	}
	for _, r := range TraceStages(s) {
		stages.Rows = append(stages.Rows, []string{
			r.Stage, fmt.Sprint(r.Count), f1(r.P50Us), f1(r.P99Us),
		})
	}

	o := MeasureInstrumentationTax(s)
	tax := Table{
		Title: fmt.Sprintf("Instrumentation tax on the prepare pipeline (%d signed prepares x2, %d rotating rounds)",
			o.Messages, o.Rounds),
		Header: []string{"arm", "median (min-max) ns/op", "overhead (median)"},
	}
	tax.Rows = append(tax.Rows,
		[]string{"bare", o.Bare.String(), "-"},
		[]string{"metrics live", o.Metrics.String(), fmt.Sprintf("%+.2f%%", o.MetricsOverheadPct)},
		[]string{"tracer on, rate 0", o.Tracer.String(), fmt.Sprintf("%+.2f%%", o.TracerOverheadPct)})
	return []Table{stages, tax}
}
