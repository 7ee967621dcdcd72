package benchharness

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/workload"
)

// TestRateAtRamp pins the piecewise-linear profile interpolation.
func TestRateAtRamp(t *testing.T) {
	phases := []Phase{
		{Dur: 2 * time.Second, StartRate: 50, EndRate: 50},
		{Dur: 4 * time.Second, StartRate: 50, EndRate: 450},
	}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 50}, {time.Second, 50}, {2 * time.Second, 50},
		{4 * time.Second, 250}, {6*time.Second - time.Millisecond, 449.9},
		{7 * time.Second, 0},
	}
	for _, c := range cases {
		got := rateAt(phases, c.at)
		if got < c.want-1 || got > c.want+1 {
			t.Fatalf("rateAt(%s) = %.1f, want ~%.1f", c.at, got, c.want)
		}
	}
}

// scriptedTx commits with whatever error its system's script yields for
// the attempt it is.
type scriptedTx struct{ err error }

func (t scriptedTx) Read(string) ([]byte, error) { return nil, nil }
func (t scriptedTx) Write(string, []byte)        {}
func (t scriptedTx) Abort()                      {}
func (t scriptedTx) Commit() error               { return t.err }

// scriptedSystem answers attempt n with script(n).
type scriptedSystem struct {
	script   func(n uint64) error
	attempts atomic.Uint64
}

func (s *scriptedSystem) Name() string        { return "scripted" }
func (s *scriptedSystem) Load(string, []byte) {}
func (s *scriptedSystem) Close()              {}
func (s *scriptedSystem) NewSession() Session { return scriptedSession{s} }

type scriptedSession struct{ s *scriptedSystem }

func (f scriptedSession) Begin() SysTx {
	return scriptedTx{f.s.script(f.s.attempts.Add(1))}
}

// rollbackGen rolls back every transaction in the workload itself.
type rollbackGen struct{}

func (rollbackGen) Name() string                  { return "rollback" }
func (rollbackGen) Populate(func(string, []byte)) {}
func (rollbackGen) Next(*rand.Rand) workload.TxnFunc {
	return workload.TxnFunc{Name: "rb", Body: func(workload.Tx) error { return workload.ErrWorkloadAbort }}
}

// TestRunOutcomeRules pins the driver's one outcome rule on open
// arrival, where every arrival is accounted for: a definite abort is
// retried until it commits or runs out of retries (starved), a timeout
// ends the transaction as unknown on its first occurrence, and a
// workload rollback is final.
func TestRunOutcomeRules(t *testing.T) {
	errAbort := errors.New("conflict")
	cases := []struct {
		name   string
		gen    workload.Generator
		script func(n uint64) error
		check  func(r Result) bool
	}{
		{"abort then commit", plainWriteGen{}, func(n uint64) error {
			if n%2 == 1 {
				return errAbort
			}
			return nil
		}, func(r Result) bool { return r.Commits == r.Offered && r.Attempts == 2*r.Offered }},
		{"abort forever starves", plainWriteGen{}, func(uint64) error { return errAbort },
			func(r Result) bool { return r.Starved == r.Offered && r.Attempts == (openMaxRetries+1)*r.Offered }},
		{"timeout is unknown", plainWriteGen{}, func(uint64) error { return client.ErrTimeout },
			func(r Result) bool { return r.Unknowns == r.Offered && r.Attempts == r.Offered }},
		{"rollback is final", rollbackGen{}, func(uint64) error { return nil },
			func(r Result) bool { return r.AppAborts == r.Offered && r.Commits == 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := Run(&scriptedSystem{script: c.script}, c.gen, RunConfig{
				Phases:  []Phase{{Dur: 200 * time.Millisecond, StartRate: 100, EndRate: 100}},
				Clients: 1, Seed: 5,
			})
			if r.Offered == 0 || r.Dropped != 0 || !c.check(r) {
				t.Fatalf("%+v", r)
			}
		})
	}
}
