package store

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/types"
)

// parallelBenchOut makes `go test -run TestWriteParallelBench` write the
// pipeline-vs-baseline prepare comparison as JSON (used by `make bench` to
// record the perf trajectory in BENCH_parallel.json). Empty = skipped.
var parallelBenchOut = flag.String("parallelbench", "", "write the parallel prepare benchmark results as JSON to this file")

// signedST1 is one pre-signed prepare message for the pipeline benchmark.
type signedST1 struct {
	meta    *types.TxMeta
	id      types.TxID
	payload []byte
	sig     types.Signature
}

// genSignedST1s builds n disjoint-key single-write transactions, each
// signed by one of the registry's keys — the crypto shape of an ST1 vote.
func genSignedST1s(reg *cryptoutil.Registry, n int) []signedST1 {
	msgs := make([]signedST1, n)
	for i := range msgs {
		m := &types.TxMeta{
			Timestamp: types.Timestamp{Time: uint64(i + 1), ClientID: 1 + uint64(i%64)},
			WriteSet:  []types.WriteEntry{{Key: fmt.Sprintf("key-%04d", i%512), Value: []byte("v")}},
			Shards:    []int32{0},
		}
		id := m.ID()
		signer := int32(i % 6)
		payload := id[:]
		msgs[i] = signedST1{
			meta:    m,
			id:      id,
			payload: payload,
			sig:     types.Signature{SignerID: signer, Direct: reg.Signer(signer).Sign(payload)},
		}
	}
	return msgs
}

// deliverSeedSerial processes one delivery the way the seed replica did:
// one mutex serializes the whole handler, with signature verification
// inside the critical section and a single-stripe store.
func deliverSeedSerial(mu *sync.Mutex, reg *cryptoutil.Registry, s *Store, m *signedST1) {
	mu.Lock()
	defer mu.Unlock()
	if !reg.Verify(m.sig.SignerID, m.payload, m.sig.Direct) {
		panic("benchmark: bad signature")
	}
	s.CheckAndPrepare(m.meta, m.id)
}

// deliverPipeline processes one delivery the way the parallel pipeline
// does: verification off every lock through the SigVerifier, then the
// striped store.
func deliverPipeline(sv *cryptoutil.SigVerifier, s *Store, m *signedST1) {
	sig := m.sig
	if !sv.Verify(m.payload, &sig) {
		panic("benchmark: bad signature")
	}
	s.CheckAndPrepare(m.meta, m.id)
}

// deliverPipelineMetrics is deliverPipeline plus exactly the
// instrumentation the replica's dispatch wraps around it when metrics
// are live: the per-kind deliver-latency clock pair. The store-side
// counters ride along when the store was built by metricsStore. The
// pipeline-vs-pipeline-metrics gap is therefore the full observability
// tax on the hot path (acceptance bound: <2%).
func deliverPipelineMetrics(sv *cryptoutil.SigVerifier, s *Store, h *metrics.Histogram, m *signedST1) {
	t0 := time.Now()
	deliverPipeline(sv, s, m)
	h.Since(t0)
}

// metricsStore builds a striped store with live instrumentation (the
// counters a replica installs via SetMetrics) plus a deliver histogram.
func metricsStore() (*Store, *metrics.Histogram) {
	reg := metrics.NewRegistry()
	s := NewStriped(DefaultStripes)
	s.SetMetrics(RegistryMetrics(reg))
	return s, reg.Histogram("basil_replica_deliver_latency_seconds", "kind", "st1")
}

// BenchmarkPrepareParallel compares the replica ingest architectures on a
// disjoint-key prepare workload at whatever GOMAXPROCS is in effect
// (`make bench` pins 4). Each op is one delivered, signed ST1 and every
// message is delivered twice — votes really are re-verified on
// re-delivery and when tallies/certificates re-carry them — so:
//
//   - seed-serial: the serial shape. One lock around verify+check,
//     single-stripe store: both deliveries pay the full ed25519
//     verification inside the global critical section.
//   - pipeline: the parallel shape. Verification outside any lock,
//     striped store. Both deliveries verify here too: SigVerifier keeps
//     no digest cache for direct signatures.
//
// Run with -benchtime=2000x (as `make bench` does) so the 4096 pre-signed
// messages are not reused and every message sees exactly two deliveries.
func BenchmarkPrepareParallel(b *testing.B) {
	reg := cryptoutil.NewRegistry(cryptoutil.SchemeEd25519, 6, 1)
	msgs := genSignedST1s(reg, 4096)

	b.Run("seed-serial", func(b *testing.B) {
		var mu sync.Mutex
		s := NewStriped(1)
		var seq atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				m := &msgs[int(seq.Add(1))%len(msgs)]
				deliverSeedSerial(&mu, reg, s, m)
				deliverSeedSerial(&mu, reg, s, m)
			}
		})
	})
	b.Run("pipeline", func(b *testing.B) {
		sv := cryptoutil.NewSigVerifier(reg, 4096)
		s := NewStriped(DefaultStripes)
		var seq atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				m := &msgs[int(seq.Add(1))%len(msgs)]
				deliverPipeline(sv, s, m)
				deliverPipeline(sv, s, m)
			}
		})
	})
	b.Run("pipeline-metrics", func(b *testing.B) {
		sv := cryptoutil.NewSigVerifier(reg, 4096)
		s, h := metricsStore()
		var seq atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				m := &msgs[int(seq.Add(1))%len(msgs)]
				deliverPipelineMetrics(sv, s, h, m)
				deliverPipelineMetrics(sv, s, h, m)
			}
		})
	})
}

// BenchmarkPrepareStoreOnly isolates the locking regimes without crypto:
// raw disjoint-key CheckAndPrepare throughput on the single-stripe store
// versus the striped store. On multi-core hardware this is where the
// stripe parallelism shows; on a single core the two converge (there is
// no second core to run the disjoint prepare on).
func BenchmarkPrepareStoreOnly(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		stripes int
	}{
		{"global-lock", 1},
		{fmt.Sprintf("striped-%d", DefaultStripes), DefaultStripes},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			s := NewStriped(cfg.stripes)
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := seq.Add(1)
					m := &types.TxMeta{
						Timestamp: types.Timestamp{Time: n, ClientID: 1 + n%64},
						WriteSet:  []types.WriteEntry{{Key: fmt.Sprintf("key-%03d", n%512), Value: []byte("v")}},
						Shards:    []int32{0},
					}
					if s.CheckAndPrepare(m, m.ID()).Outcome != CheckOK {
						b.Fatal("disjoint-key prepare rejected")
					}
				}
			})
		})
	}
}

// parallelBenchResult is one row of BENCH_parallel.json.
type parallelBenchResult struct {
	Name           string  `json:"name"`
	Stripes        int     `json:"stripes"`
	GoMaxProcs     int     `json:"gomaxprocs"`
	NsPerOp        float64 `json:"ns_per_op"`
	PreparesPerSec float64 `json:"prepares_per_sec"`
}

// measureFixed times `total` ops (two deliveries each) spread over
// GOMAXPROCS goroutines and returns ns per op. Fixed iteration counts
// keep the two configurations' allocation footprints identical, which
// auto-scaled b.N would not.
func measureFixed(total, workers int, deliver func(m *signedST1), msgs []signedST1) float64 {
	var seq atomic.Uint64
	var wg sync.WaitGroup
	per := total / workers
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

// TestWriteParallelBench runs the architecture comparison at GOMAXPROCS=4
// with exactly-twice delivery of 4000 pre-signed prepares, and writes the
// result (plus the speedup) as JSON. Skipped unless -parallelbench names
// an output file, so the regular test run stays fast.
func TestWriteParallelBench(t *testing.T) {
	if *parallelBenchOut == "" {
		t.Skip("no -parallelbench output file given")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const total = 4000
	reg := cryptoutil.NewRegistry(cryptoutil.SchemeEd25519, 6, 1)

	best := func(run func() float64) float64 {
		b := run()
		for i := 0; i < 2; i++ {
			if v := run(); v < b {
				b = v
			}
		}
		return b
	}
	seedNs := best(func() float64 {
		var mu sync.Mutex
		s := NewStriped(1)
		msgs := genSignedST1s(reg, total)
		return measureFixed(total, 4, func(m *signedST1) { deliverSeedSerial(&mu, reg, s, m) }, msgs)
	})
	pipeNs := best(func() float64 {
		sv := cryptoutil.NewSigVerifier(reg, total)
		s := NewStriped(DefaultStripes)
		msgs := genSignedST1s(reg, total)
		return measureFixed(total, 4, func(m *signedST1) { deliverPipeline(sv, s, m) }, msgs)
	})
	metricsNs := best(func() float64 {
		sv := cryptoutil.NewSigVerifier(reg, total)
		s, h := metricsStore()
		msgs := genSignedST1s(reg, total)
		return measureFixed(total, 4, func(m *signedST1) { deliverPipelineMetrics(sv, s, h, m) }, msgs)
	})

	out := struct {
		Benchmark string                `json:"benchmark"`
		Workload  string                `json:"workload"`
		Results   []parallelBenchResult `json:"results"`
		Speedup   float64               `json:"speedup_pipeline_over_seed"`
		// MetricsOverheadPct is the observability tax: the pipeline with
		// live metrics (deliver-latency histogram + store counters)
		// relative to the uninstrumented pipeline. Must stay below 2.
		MetricsOverheadPct float64 `json:"metrics_overhead_pct"`
	}{
		Benchmark: "BenchmarkPrepareParallel",
		Workload:  "disjoint-key signed prepares, every message delivered twice (re-delivery/tally re-carriage)",
		Results: []parallelBenchResult{
			{Name: "seed-serial (verify under one lock)", Stripes: 1, GoMaxProcs: 4,
				NsPerOp: seedNs, PreparesPerSec: 1e9 / seedNs},
			{Name: "pipeline (off-lock verify, striped store)", Stripes: DefaultStripes, GoMaxProcs: 4,
				NsPerOp: pipeNs, PreparesPerSec: 1e9 / pipeNs},
			{Name: "pipeline-metrics (live deliver histogram + store counters)", Stripes: DefaultStripes, GoMaxProcs: 4,
				NsPerOp: metricsNs, PreparesPerSec: 1e9 / metricsNs},
		},
		Speedup:            seedNs / pipeNs,
		MetricsOverheadPct: (metricsNs - pipeNs) / pipeNs * 100,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*parallelBenchOut, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", *parallelBenchOut, err)
	}
	t.Logf("seed-serial: %.0f ns/op, pipeline: %.0f ns/op (speedup %.2fx), with metrics: %.0f ns/op (overhead %.2f%%)",
		seedNs, pipeNs, out.Speedup, metricsNs, out.MetricsOverheadPct)
}
