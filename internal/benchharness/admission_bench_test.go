package benchharness

import (
	"flag"
	"testing"
	"time"

	"repro/internal/workload"
)

// admissionBenchOut makes `go test -run TestWriteAdmissionBench` write the
// overload-scenario comparison as JSON (used by `make bench` to record the
// trajectory in BENCH_admission.json). Empty = skipped.
var admissionBenchOut = flag.String("admissionbench", "", "write the admission overload benchmark results as JSON to this file")

// admissionBenchRow is one scenario in BENCH_admission.json.
type admissionBenchRow struct {
	Config          string  `json:"config"`
	DispatchQueue   int     `json:"dispatch_queue"`
	Spammers        int     `json:"spammers"`
	HonestTputTxps  float64 `json:"honest_tput_txps"`
	HonestP99Ms     float64 `json:"honest_p99_ms"`
	HonestCommits   uint64  `json:"honest_commits"`
	Shed            uint64  `json:"shed_total"`
	ShedReputation  uint64  `json:"shed_reputation_total"`
	HonestOverloads uint64  `json:"honest_overloads"`
	SpamST1PerSec   float64 `json:"spam_st1_per_sec"`
	// BaselineShare is honest throughput as a fraction of the no-spammer
	// baseline row — the admission PR's acceptance number (the limited
	// row must stay high while the unlimited row collapses).
	BaselineShare float64 `json:"baseline_share"`
}

// TestWriteAdmissionBench runs the three overload scenarios (no spammer /
// unlimited+spammer / limited+spammer) and records honest throughput,
// tail latency and shed accounting. Run via `make bench`:
//
//	go test ./internal/benchharness/ -run TestWriteAdmissionBench \
//	    -admissionbench BENCH_admission.json -v -count=1
func TestWriteAdmissionBench(t *testing.T) {
	if *admissionBenchOut == "" {
		t.Skip("no -admissionbench output path; run via make bench")
	}
	s := Quick()
	// Warmup must outlast the 2δ watermark trail (500ms at the scenario's
	// δ=250ms) so the spammer is a scored suspect before measurement
	// starts; the longer measure window is for tail latency.
	s.Warmup = 700 * time.Millisecond
	s.Measure = 2 * s.Measure
	gen := workload.NewYCSB(workload.YCSBConfig{Keys: s.YCSBKeys, ReadOps: 2, WriteOps: 2})

	var rows []admissionBenchRow
	baseline := 0.0
	for _, sc := range AdmissionScenarios() {
		r := RunAdmissionScenario(s, gen, sc)
		row := admissionBenchRow{
			Config:          sc.Label,
			DispatchQueue:   sc.DispatchQueue,
			Spammers:        sc.Spammers,
			HonestTputTxps:  r.Throughput,
			HonestP99Ms:     r.P99LatMs,
			HonestCommits:   r.Commits,
			Shed:            r.Shed,
			ShedReputation:  r.ShedReputation,
			HonestOverloads: r.Overloads,
			SpamST1PerSec:   float64(r.FaultyTxs) / r.MeasureSecs,
		}
		if sc.Spammers == 0 {
			baseline = r.Throughput
		}
		if baseline > 0 {
			row.BaselineShare = r.Throughput / baseline
		}
		rows = append(rows, row)
		t.Logf("%-22s tput=%.1f tx/s (%.0f%% of baseline) p99=%.2fms shed=%d rep=%d overloads=%d spam=%.0f/s",
			row.Config, row.HonestTputTxps, row.BaselineShare*100, row.HonestP99Ms,
			row.Shed, row.ShedReputation, row.HonestOverloads, row.SpamST1PerSec)
	}

	if err := WriteRecord(*admissionBenchOut, "admission", rows); err != nil {
		t.Fatal(err)
	}
}
