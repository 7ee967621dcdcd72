package scenario

import (
	"fmt"
	"time"

	"repro/internal/benchharness"
)

// SLO is a scenario's explicit service-level objectives. Zero-valued
// fields are unchecked; every non-zero field becomes one named check in
// the verdict. Latency budgets are in milliseconds before tuning (race
// builds multiply them by Tuning.LatScale); MinCommits is before tuning
// too (scaled by Tuning.RateScale).
type SLO struct {
	// CalmP99Ms bounds the p99 of completions whose intended arrival
	// predates the storm (the whole run when there is no storm window).
	CalmP99Ms float64
	// StormP99Ms bounds the p99 of arrivals inside the storm window.
	StormP99Ms float64
	// MinCommits floors the committed-transaction count.
	MinCommits uint64
	// RecoverWithin bounds how long after the storm ends throughput must
	// return to RecoverFrac of the calm baseline (sliding 3-bin window
	// over the commit timeline).
	RecoverWithin time.Duration
	// RecoverFrac is the recovered-throughput fraction (default 0.7).
	RecoverFrac float64
	// RequireSheds asserts the replicas' admission control engaged
	// (explicit sheds > 0) — the spam scenario's core claim.
	RequireSheds bool
	// RequireBackpressure asserts overload surfaced *somewhere explicit*
	// (generator drops, starved retries, replica sheds or Overloaded
	// replies) instead of only as silently growing latency.
	RequireBackpressure bool
	// MaxDropFrac bounds generator-side drops as a fraction of offered
	// load (0 = unchecked; scenarios that must not saturate set it).
	MaxDropFrac float64
}

// Check is one named SLO clause with its observed outcome.
type Check struct {
	Name   string `json:"name"`
	Ok     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Verdict is a scenario's pass/fail decision: pass iff every check
// passed.
type Verdict struct {
	Pass   bool    `json:"pass"`
	Checks []Check `json:"checks"`
}

func (v *Verdict) add(name string, ok bool, format string, args ...any) {
	v.Checks = append(v.Checks, Check{Name: name, Ok: ok, Detail: fmt.Sprintf(format, args...)})
}

// finalize computes Pass.
func (v *Verdict) finalize() {
	v.Pass = true
	for _, c := range v.Checks {
		if !c.Ok {
			v.Pass = false
		}
	}
}

// verdictInput is everything the SLO evaluation consumes, gathered by
// RunScenario after all goroutines joined.
type verdictInput struct {
	load       benchharness.Result
	serialErr  error   // DSG oracle outcome over commits + resolved unknowns + final reads
	audited    int     // final-read audit transactions that committed
	unresolved int     // unknowns FinishTransaction could not decide
	recoveryMs float64 // -1 = never recovered; 0 with no storm window
	eventErrs  []string
	hasEvents  bool
	tuning     Tuning
}

// evaluate renders the SLO against one run's evidence.
func (s SLO) evaluate(in verdictInput) Verdict {
	var v Verdict
	tn := in.tuning

	// Safety first: the DSG oracle over every committed transaction
	// (including post-run-resolved unknowns and the final-read audit)
	// must hold — this is the "no committed write lost" clause, since a
	// lost write surfaces as a final read serialized against its
	// timestamp order.
	if in.serialErr != nil {
		v.add("serializable", false, "%v", in.serialErr)
	} else {
		v.add("serializable", true,
			"DSG acyclic, ts-order consistent; %d final-read audits", in.audited)
	}
	v.add("unknowns-resolved", in.unresolved == 0,
		"%d unknown outcomes undecided after recovery sweep", in.unresolved)

	if s.MinCommits > 0 {
		want := uint64(float64(s.MinCommits) * tn.RateScale)
		if want == 0 {
			want = 1
		}
		v.add("min-commits", in.load.Commits >= want,
			"%d commits (floor %d)", in.load.Commits, want)
	}
	if s.CalmP99Ms > 0 {
		budget := s.CalmP99Ms * tn.LatScale
		v.add("calm-p99", in.load.CalmP99Ms <= budget,
			"%.1fms (budget %.0fms, n=%d)", in.load.CalmP99Ms, budget, in.load.CalmCount)
	}
	if s.StormP99Ms > 0 {
		budget := s.StormP99Ms * tn.LatScale
		v.add("storm-p99", in.load.StormP99Ms <= budget,
			"%.1fms (budget %.0fms, n=%d)", in.load.StormP99Ms, budget, in.load.StormCount)
	}
	if s.RecoverWithin > 0 {
		deadline := float64(s.RecoverWithin.Milliseconds()) * tn.LatScale
		ok := in.recoveryMs >= 0 && in.recoveryMs <= deadline
		detail := fmt.Sprintf("%.0fms to baseline (deadline %.0fms)", in.recoveryMs, deadline)
		if in.recoveryMs < 0 {
			detail = fmt.Sprintf("never returned to baseline (deadline %.0fms)", deadline)
		}
		v.add("recovery", ok, "%s", detail)
	}
	if s.RequireSheds {
		v.add("admission-engaged", in.load.Shed > 0,
			"%d replica sheds, %d honest Overloaded replies", in.load.Shed, in.load.Overloads)
	}
	if s.RequireBackpressure {
		explicit := in.load.Dropped + in.load.Starved + in.load.Shed + in.load.Overloads
		v.add("backpressure-explicit", explicit > 0,
			"%d drops + %d starved + %d sheds + %d overloads", in.load.Dropped, in.load.Starved, in.load.Shed, in.load.Overloads)
	}
	if s.MaxDropFrac > 0 && in.load.Offered > 0 {
		frac := float64(in.load.Dropped) / float64(in.load.Offered)
		v.add("drop-frac", frac <= s.MaxDropFrac,
			"%.3f of offered load dropped (budget %.3f)", frac, s.MaxDropFrac)
	}
	if in.hasEvents {
		v.add("chaos-applied", len(in.eventErrs) == 0, "event errors: %v", in.eventErrs)
	}
	v.finalize()
	return v
}

// recoveryMs measures time from storm end until committed throughput
// returns to frac of the calm baseline: baseline is the mean commits/bin
// over the pre-storm bins (skipping the first two as warmup), recovery
// is the start of the first 3-bin sliding window at or above
// frac*baseline after the storm. Returns -1 if throughput never
// recovers inside the record, 0 when there is no storm window.
func recoveryMs(bins []uint64, binDur, stormStart, stormEnd time.Duration, frac float64) float64 {
	if stormStart == 0 && stormEnd == 0 {
		return 0
	}
	if frac <= 0 {
		frac = 0.7
	}
	stormStartBin := int(stormStart / binDur)
	stormEndBin := int(stormEnd / binDur)
	warm := 2
	if stormStartBin-warm < 1 {
		warm = 0
	}
	if stormStartBin <= warm {
		return -1
	}
	var base float64
	for _, b := range bins[warm:stormStartBin] {
		base += float64(b)
	}
	base /= float64(stormStartBin - warm)
	if base <= 0 {
		return -1
	}
	const window = 3
	// The final bin is a partial interval plus drain-tail clamp; exclude
	// it from the search.
	for i := stormEndBin; i+window <= len(bins)-1; i++ {
		var sum float64
		for _, b := range bins[i : i+window] {
			sum += float64(b)
		}
		if sum/window >= frac*base {
			ms := float64(time.Duration(i)*binDur-stormEnd) / float64(time.Millisecond)
			if ms < 0 {
				ms = 0
			}
			return ms
		}
	}
	return -1
}
