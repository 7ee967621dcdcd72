package benchharness

import (
	"flag"
	"testing"
)

// traceBenchOut makes `go test -run TestWriteTraceBench` write the
// tracing stage breakdown and disabled-path overhead as JSON (used by
// `make bench` to record the trajectory in BENCH_trace.json). Empty =
// skipped.
var traceBenchOut = flag.String("tracebench", "", "write the trace stage/overhead benchmark results as JSON to this file")

// traceBenchDoc is the BENCH_trace.json schema: the per-stage p50/p99
// latency rows a fully sampled cluster yields, and the unsampled-path
// cost of leaving the tracer compiled into the hot path.
type traceBenchDoc struct {
	Stages   []TraceStageRow `json:"stages"`
	Overhead TraceOverhead   `json:"overhead"`
}

// TestWriteTraceBench runs the tracing experiment and records the
// results. Run via `make bench`:
//
//	go test ./internal/benchharness/ -run TestWriteTraceBench \
//	    -tracebench BENCH_trace.json -v -count=1
//
// The overhead side is the PR's acceptance number: the prepare pipeline
// with a rate-zero tracer threaded through must stay within 2% of bare
// (the assertion lives in the alloc-free test in internal/trace; here
// the measured number is recorded so the trajectory is visible).
func TestWriteTraceBench(t *testing.T) {
	if *traceBenchOut == "" {
		t.Skip("no -tracebench output path; run via make bench")
	}
	s := Quick()
	doc := traceBenchDoc{
		Stages:   TraceStages(s),
		Overhead: MeasureTraceOverhead(s),
	}
	for _, r := range doc.Stages {
		t.Logf("%-24s n=%-6d p50=%8.1fus p99=%8.1fus", r.Stage, r.Count, r.P50Us, r.P99Us)
	}
	o := doc.Overhead
	t.Logf("unsampled Start: %.1f ns/op, %.2f allocs/op", o.StartNsPerOp, o.StartAllocsPerOp)
	t.Logf("pipeline bare %.1f ns/op, tracer-on %.1f ns/op, overhead %+.2f%% (bound: +2%%)",
		o.BareNsPerOp, o.UnsampledNsPerOp, o.OverheadPct)
	if o.StartAllocsPerOp != 0 {
		t.Errorf("unsampled Start/End allocates (%.2f allocs/op); the disabled path must be alloc-free", o.StartAllocsPerOp)
	}

	if err := WriteRecord(*traceBenchOut, "trace", doc); err != nil {
		t.Fatal(err)
	}
}
