package scenario

import (
	"testing"
)

// TestSmokeScenarios runs the seeded smoke subset end-to-end over real
// clusters: open-loop load, the partition storm, unknown resolution,
// the final-read audit and the DSG oracle, asserting every SLO verdict
// passes. A failure prints the scenario's seed; the run reproduces from
// it (every arrival, workload draw and chaos decision derives from the
// seed).
func TestSmokeScenarios(t *testing.T) {
	const seed = 42
	for _, sc := range Smoke() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := RunScenario(sc, seed, DefaultTuning())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if res.Load.Commits == 0 {
				t.Fatalf("seed %d: no commits", seed)
			}
			for _, c := range res.Verdict.Checks {
				t.Logf("check %-22s ok=%-5v %s", c.Name, c.Ok, c.Detail)
			}
			if !res.Verdict.Pass {
				t.Fatalf("seed %d: scenario %s failed its SLOs (reproduce with the same seed)", seed, sc.Name)
			}
		})
	}
}

// TestSmokeScenarioSeedReproducible pins the reproducibility contract
// on the cheap axis we can assert exactly: the same seed offers the
// same arrival count and user-attributed workload stream. (Latency and
// interleaving are wall-clock and may differ; the offered schedule and
// the transactions' contents may not.)
func TestSmokeScenarioSeedReproducible(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock dispatch under the race detector skews arrival counts")
	}
	sc := Smoke()[0]
	a, err := RunScenario(sc, 7, DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(sc, 7, DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	// The Poisson schedule is seed-derived: both runs draw the same
	// inter-arrival gaps, so offered counts agree within the handful of
	// arrivals that real-time dispatch can clip at the window edge.
	diff := int64(a.Load.Offered) - int64(b.Load.Offered)
	if diff < -3 || diff > 3 {
		t.Fatalf("same-seed runs offered %d vs %d arrivals", a.Load.Offered, b.Load.Offered)
	}
}
