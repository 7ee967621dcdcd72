package scenario

import (
	"fmt"

	"repro/internal/benchharness"
)

// JSONScenario is one scenario's row in BENCH_scenarios.json.
type JSONScenario struct {
	Name    string  `json:"name"`
	Desc    string  `json:"desc"`
	Seed    int64   `json:"seed"`
	Pass    bool    `json:"pass"`
	Checks  []Check `json:"checks"`
	Offered uint64  `json:"offered"`
	Commits uint64  `json:"commits"`
	Dropped uint64  `json:"dropped"`
	Starved uint64  `json:"starved"`
	Unknown uint64  `json:"unknown"`

	ThroughputTxs float64  `json:"throughput_txs"`
	CapacityTxs   float64  `json:"capacity_txs,omitempty"`
	CalmP99Ms     float64  `json:"calm_p99_ms"`
	StormP99Ms    float64  `json:"storm_p99_ms"`
	RecoveryMs    float64  `json:"recovery_ms"`
	FastPathShare float64  `json:"fast_path_share"`
	Sheds         uint64   `json:"sheds"`
	Overloads     uint64   `json:"overloads"`
	SpamSent      uint64   `json:"spam_sent"`
	Events        []string `json:"events,omitempty"`
}

// JSONReport is the results part of BENCH_scenarios.json (documented in
// docs/benchmarking.md).
type JSONReport struct {
	Seed      int64          `json:"seed"`
	Race      bool           `json:"race"`
	Scenarios []JSONScenario `json:"scenarios"`
}

// toJSON flattens a Result into its report row.
func toJSON(r Result) JSONScenario {
	return JSONScenario{
		Name: r.Name, Desc: r.Desc, Seed: r.Seed,
		Pass: r.Verdict.Pass, Checks: r.Verdict.Checks,
		Offered: r.Load.Offered, Commits: r.Load.Commits,
		Dropped: r.Load.Dropped, Starved: r.Load.Starved, Unknown: r.Load.Unknowns,
		ThroughputTxs: r.Load.Throughput,
		CapacityTxs:   r.CapacityTxs,
		CalmP99Ms:     r.Load.CalmP99Ms, StormP99Ms: r.Load.StormP99Ms,
		RecoveryMs: r.RecoveryMs, FastPathShare: r.FastPathShare,
		Sheds: r.Load.Shed, Overloads: r.Load.Overloads, SpamSent: r.Load.FaultyTxs,
		Events: r.Events,
	}
}

// RunMatrix runs every scenario in scs with the given seed and tuning
// and returns the results plus the assembled report.
func RunMatrix(scs []Scenario, seed int64, tn Tuning) ([]Result, JSONReport, error) {
	rep := JSONReport{Seed: seed, Race: raceEnabled}
	var results []Result
	for _, sc := range scs {
		r, err := RunScenario(sc, seed, tn)
		if err != nil {
			return results, rep, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		results = append(results, r)
		rep.Scenarios = append(rep.Scenarios, toJSON(r))
	}
	return results, rep, nil
}

// WriteJSON writes the report in the shared benchmark record envelope.
func WriteJSON(path string, rep JSONReport) error {
	return benchharness.WriteRecord(path, "scenarios", rep)
}

// FigScenarios renders the scenario verdicts as a bench table: one row
// per scenario with its verdict and the headline numbers each SLO was
// judged on.
func FigScenarios(results []Result) benchharness.Table {
	t := benchharness.Table{
		Title:  "Production scenarios: open-loop load, chaos storms, SLO verdicts",
		Header: []string{"scenario", "verdict", "offered", "commits", "tput (tx/s)", "calm p99 (ms)", "storm p99 (ms)", "recover (ms)", "sheds"},
	}
	for _, r := range results {
		verdict := "PASS"
		if !r.Verdict.Pass {
			verdict = "FAIL"
			for _, c := range r.Verdict.Checks {
				if !c.Ok {
					verdict = "FAIL:" + c.Name
					break
				}
			}
		}
		recover := fmt.Sprintf("%.0f", r.RecoveryMs)
		if r.RecoveryMs < 0 {
			recover = "never"
		}
		t.Rows = append(t.Rows, []string{
			r.Name, verdict,
			fmt.Sprint(r.Load.Offered), fmt.Sprint(r.Load.Commits),
			fmt.Sprintf("%.1f", r.Load.Throughput),
			fmt.Sprintf("%.1f", r.Load.CalmP99Ms),
			fmt.Sprintf("%.1f", r.Load.StormP99Ms),
			recover,
			fmt.Sprint(r.Load.Shed),
		})
	}
	return t
}
