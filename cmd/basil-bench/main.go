// Command basil-bench regenerates the paper's evaluation tables and
// figures (§6) as text rows. Each experiment id matches a figure; see
// docs/benchmarking.md for the experiment index and recorded
// paper-vs-measured results.
//
// Usage:
//
//	basil-bench -experiment all -scale quick
//	basil-bench -experiment fig4 -scale full
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/benchharness"
	"repro/internal/scenario"
)

// runEnv is what an experiment reads from the command line.
type runEnv struct {
	out      io.Writer
	scale    benchharness.Scale
	seed     int64
	jsonPath string
}

// experiment is one `-experiment` id and the tables it prints.
type experiment struct {
	id string
	// alone marks an experiment that runs only when named, never under
	// "all".
	alone bool
	run   func(e runEnv) error
}

// render prints an experiment's tables.
func render(e runEnv, tables ...benchharness.Table) error {
	for _, t := range tables {
		t.Render(e.out)
	}
	return nil
}

// experiments is the dispatch table, in the order "all" runs it; its ids
// are the rows of docs/benchmarking.md's experiment index.
var experiments = []experiment{
	{id: "fig4", run: func(e runEnv) error { return render(e, benchharness.Fig4(e.scale)...) }},
	{id: "fig5a", run: func(e runEnv) error { return render(e, benchharness.Fig5a(e.scale)) }},
	{id: "fig5b", run: func(e runEnv) error { return render(e, benchharness.Fig5b(e.scale)) }},
	{id: "fig5c", run: func(e runEnv) error { return render(e, benchharness.Fig5c(e.scale)) }},
	{id: "fig6a", run: func(e runEnv) error { return render(e, benchharness.Fig6a(e.scale)) }},
	{id: "fig6b", run: func(e runEnv) error { return render(e, benchharness.Fig6b(e.scale)) }},
	{id: "fig7a", run: func(e runEnv) error { return render(e, benchharness.Fig7(e.scale, false)) }},
	{id: "fig7b", run: func(e runEnv) error { return render(e, benchharness.Fig7(e.scale, true)) }},
	{id: "latency", run: func(e runEnv) error { return render(e, benchharness.FigLatency(e.scale, 500*time.Microsecond)) }},
	{id: "rates", run: func(e runEnv) error { return render(e, benchharness.CommitRates(e.scale)) }},
	{id: "durability", run: func(e runEnv) error { return render(e, benchharness.FigDurability(e.scale)) }},
	{id: "admission", run: func(e runEnv) error { return render(e, benchharness.FigAdmission(e.scale)) }},
	{id: "trace", run: func(e runEnv) error { return render(e, benchharness.FigTrace(e.scale)...) }},
	// The scenario matrix is a minute-long chaos suite with its own
	// verdict output, run deliberately.
	{id: "scenarios", alone: true, run: runScenarios},
}

func runScenarios(e runEnv) error {
	fmt.Fprintf(e.out, "scenario seed %d\n", e.seed)
	results, rep, err := scenario.RunMatrix(scenario.Matrix(), e.seed, scenario.DefaultTuning())
	if err != nil {
		return err
	}
	t := scenario.FigScenarios(results)
	t.Render(e.out)
	for _, r := range results {
		for _, c := range r.Verdict.Checks {
			if !c.Ok {
				fmt.Fprintf(e.out, "  FAIL %s/%s: %s (reproduce: -experiment scenarios -seed %d)\n",
					r.Name, c.Name, c.Detail, r.Seed)
			}
		}
	}
	if e.jsonPath != "" {
		if err := scenario.WriteJSON(e.jsonPath, rep); err != nil {
			return fmt.Errorf("write %s: %w", e.jsonPath, err)
		}
		fmt.Fprintf(e.out, "wrote %s\n", e.jsonPath)
	}
	return nil
}

func main() {
	var ids []string
	for _, x := range experiments {
		ids = append(ids, x.id)
	}
	exp := flag.String("experiment", "all", "experiment id: "+strings.Join(append(ids, "all"), ", "))
	scaleName := flag.String("scale", "quick", "quick or full")
	seed := flag.Int64("seed", 1, "scenario seed (scenarios experiment); every run reproduces from it")
	jsonPath := flag.String("json", "", "write the scenarios experiment's verdicts to this JSON file")
	flag.Parse()

	env := runEnv{out: os.Stdout, seed: *seed, jsonPath: *jsonPath}
	switch *scaleName {
	case "quick":
		env.scale = benchharness.Quick()
	case "full":
		env.scale = benchharness.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or full)\n", *scaleName)
		os.Exit(2)
	}

	ran := false
	for _, x := range experiments {
		named := strings.EqualFold(*exp, x.id)
		if !named && (x.alone || *exp != "all") {
			continue
		}
		ran = true
		fmt.Printf("running %s ...\n", x.id)
		if err := x.run(env); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", x.id, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
