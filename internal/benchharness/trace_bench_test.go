package benchharness

import (
	"flag"
	"math"
	"testing"
)

// traceBenchOut makes `go test -run TestWriteTraceBench` write the
// tracing stage breakdown and the instrumentation tax as JSON (used by
// `make bench` to record the trajectory in BENCH_trace.json). Empty =
// skipped.
var traceBenchOut = flag.String("tracebench", "", "write the trace stage/overhead benchmark results as JSON to this file")

// traceBenchDoc is the BENCH_trace.json schema: the per-stage p50/p99
// latency rows a fully sampled cluster yields, and what leaving metrics
// and the tracer compiled into the hot path costs.
type traceBenchDoc struct {
	Stages   []TraceStageRow    `json:"stages"`
	Overhead InstrumentationTax `json:"overhead"`
}

// TestWriteTraceBench runs the tracing experiment and records the
// results. Run via `make bench`:
//
//	go test ./internal/benchharness/ -run TestWriteTraceBench \
//	    -tracebench BENCH_trace.json -v -count=1
//
// The overhead side records the instrumentation tax against its 2%
// bound; it asserts nothing, because a timing bound flakes on a shared
// host. The alloc-free disabled paths are pinned by
// TestUnsampledPathAllocFree (internal/trace) and TestRecordPathAllocFree
// (internal/metrics).
func TestWriteTraceBench(t *testing.T) {
	if *traceBenchOut == "" {
		t.Skip("no -tracebench output path; run via make bench")
	}
	s := Quick()
	doc := traceBenchDoc{
		Stages:   TraceStages(s),
		Overhead: MeasureInstrumentationTax(s),
	}
	for _, r := range doc.Stages {
		t.Logf("%-24s n=%-6d p50=%8.1fus p99=%8.1fus", r.Stage, r.Count, r.P50Us, r.P99Us)
	}
	o := doc.Overhead
	t.Logf("prepare pipeline ns/op over %d rounds: bare %v, metrics %v, tracer %v; overhead metrics %+.2f%%, tracer %+.2f%% (bound: +2%%)",
		o.Rounds, o.Bare, o.Metrics, o.Tracer, o.MetricsOverheadPct, o.TracerOverheadPct)

	if err := WriteRecord(*traceBenchOut, "trace", doc); err != nil {
		t.Fatal(err)
	}
}

// TestInstrumentationTaxSmoke runs the tax measurement at quick scale and
// checks only that every arm produced a finite, positive time.
func TestInstrumentationTaxSmoke(t *testing.T) {
	o := MeasureInstrumentationTax(Quick())
	if o.Rounds < 5 {
		t.Fatalf("rounds = %d, want at least 5", o.Rounds)
	}
	for name, a := range map[string]Spread{"bare": o.Bare, "metrics": o.Metrics, "tracer": o.Tracer} {
		for _, v := range []float64{a.Median, a.Min, a.Max} {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s arm: ns/op %v, want finite and positive (%v)", name, v, a)
			}
		}
	}
	for _, v := range []float64{o.MetricsOverheadPct, o.TracerOverheadPct} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("overhead %v%%, want finite", v)
		}
	}
}
