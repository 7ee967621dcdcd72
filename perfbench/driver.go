package main

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/basil"
	"repro/internal/benchharness"
	"repro/internal/types"
	"repro/internal/workload"
)

// maxAttempts bounds the retries of one transaction: a transaction still
// aborting after this many attempts is starved and counts as failed. It
// matches basil.Client.Run.
const maxAttempts = 50

// phase is the account of one closed-loop phase. Every transaction begun
// in the phase is run to its end, so
//
//	Attempts == Commits + Retried + Failed
//
// holds exactly: each attempt either commits, aborts and is retried, or
// ends its transaction as failed.
type phase struct {
	Sessions int
	Started  int // transactions begun (first attempts)
	Attempts int
	Commits  int
	Retried  int // aborted attempts followed by another attempt
	Failed   int // transactions that ended without committing
	Elapsed  time.Duration

	LatMs    []float64 // first Begin to successful Commit, per commit
	ReadMs   []float64 // per Txn.Read call
	CommitMs []float64 // per Txn.Commit call

	Committed []*types.TxMeta // metadata of each committed transaction
	// Unsure lists the keys written by failed transactions: their
	// outcome at the replicas is unknown, so the final-read audit skips
	// them.
	Unsure []string
	Spans  []span // only when the phase is traced
}

// tput is committed transactions per second.
func (p *phase) tput() float64 { return float64(p.Commits) / p.Elapsed.Seconds() }

// commitRate is commits per attempt.
func (p *phase) commitRate() float64 { return ratio(float64(p.Commits), float64(p.Attempts)) }

// merge folds another account (a session's, or a round's) into p.
func (p *phase) merge(o *phase) {
	p.Elapsed += o.Elapsed
	p.Started += o.Started
	p.Attempts += o.Attempts
	p.Commits += o.Commits
	p.Retried += o.Retried
	p.Failed += o.Failed
	p.LatMs = append(p.LatMs, o.LatMs...)
	p.ReadMs = append(p.ReadMs, o.ReadMs...)
	p.CommitMs = append(p.CommitMs, o.CommitMs...)
	p.Committed = append(p.Committed, o.Committed...)
	p.Unsure = append(p.Unsure, o.Unsure...)
	p.Spans = append(p.Spans, o.Spans...)
}

// metaTx is implemented by transactions that expose their metadata
// (basil's); the DSG check needs it.
type metaTx interface {
	Meta() *types.TxMeta
}

// loopSession is one closed-loop caller: its session, the rng that draws
// its transactions, and a separate rng for retry jitter, so the inputs a
// seed generates do not depend on how often transactions abort.
type loopSession struct {
	id     int
	sess   benchharness.Session
	inputs *rand.Rand
	jitter *rand.Rand
	spanID uint64
	txnSeq uint64
}

func newLoopSessions(sys benchharness.System, n int, seed int64) []*loopSession {
	out := make([]*loopSession, n)
	for i := range out {
		out[i] = &loopSession{
			id:     i,
			sess:   sys.NewSession(),
			inputs: rand.New(rand.NewSource(seed*1_000_003 + int64(i))),
			jitter: rand.New(rand.NewSource(seed*7_919 + int64(i) + 1)),
		}
	}
	return out
}

// runFor drives the sessions closed loop until d has passed, then lets
// each finish the transaction it is in.
func runFor(sessions []*loopSession, gen workload.Generator, d time.Duration, traced bool) *phase {
	deadline := time.Now().Add(d)
	return runPhase(sessions, gen, traced, func(int) bool { return time.Now().Before(deadline) })
}

// runCount drives each session through exactly n transactions.
func runCount(sessions []*loopSession, gen workload.Generator, n int) *phase {
	return runPhase(sessions, gen, false, func(done int) bool { return done < n })
}

func runPhase(sessions []*loopSession, gen workload.Generator, traced bool, more func(done int) bool) *phase {
	t0 := time.Now()
	parts := make([]*phase, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = s.loop(gen, traced, more)
		}()
	}
	wg.Wait()
	p := &phase{Sessions: len(sessions)}
	for _, o := range parts {
		p.merge(o)
	}
	p.Elapsed = time.Since(t0)
	return p
}

func (s *loopSession) loop(gen workload.Generator, traced bool, more func(done int) bool) *phase {
	p := &phase{}
	for done := 0; more(done); done++ {
		s.txn(p, gen.Next(s.inputs), traced)
	}
	return p
}

// txn runs one transaction to its end: commit, or failure after a
// non-retryable error or maxAttempts aborts.
func (s *loopSession) txn(p *phase, fn workload.TxnFunc, traced bool) {
	p.Started++
	s.txnSeq++
	rec := spanRec{on: traced, txn: uint64(s.id)<<48 | s.txnSeq, next: &s.spanID}
	txnSpan := rec.id()
	start := time.Now()
	backoff := 200 * time.Microsecond
	for attempt := 1; ; attempt++ {
		p.Attempts++
		tx := &timedTx{SysTx: s.sess.Begin(), p: p, rec: rec, parent: txnSpan}
		err := fn.Body(tx)
		if err == nil {
			err = tx.commit()
		} else {
			tx.Abort()
		}
		if err == nil {
			p.Commits++
			p.LatMs = append(p.LatMs, msSince(start))
			if m, ok := tx.SysTx.(metaTx); ok {
				p.Committed = append(p.Committed, m.Meta())
			}
			rec.add(p, txnSpan, 0, "txn", start, time.Now())
			return
		}
		if errors.Is(err, basil.ErrAborted) && attempt < maxAttempts {
			p.Retried++
			time.Sleep(backoff + time.Duration(s.jitter.Int63n(int64(backoff))))
			if backoff < 20*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		p.Failed++
		for k := range tx.writes {
			p.Unsure = append(p.Unsure, k)
		}
		rec.add(p, txnSpan, 0, "txn", start, time.Now())
		return
	}
}

// timedTx times every Read and Commit call into the system and records
// them as spans when the phase is traced.
type timedTx struct {
	benchharness.SysTx
	p      *phase
	rec    spanRec
	parent uint64
	writes map[string]bool
}

func (t *timedTx) Read(key string) ([]byte, error) {
	t0 := time.Now()
	v, err := t.SysTx.Read(key)
	t1 := time.Now()
	t.p.ReadMs = append(t.p.ReadMs, ms(t1.Sub(t0)))
	t.rec.add(t.p, t.rec.id(), t.parent, "client.read", t0, t1)
	return v, err
}

func (t *timedTx) Write(key string, value []byte) {
	if t.writes == nil {
		t.writes = make(map[string]bool)
	}
	t.writes[key] = true
	t.SysTx.Write(key, value)
}

func (t *timedTx) commit() error {
	t0 := time.Now()
	err := t.SysTx.Commit()
	t1 := time.Now()
	t.p.CommitMs = append(t.p.CommitMs, ms(t1.Sub(t0)))
	t.rec.add(t.p, t.rec.id(), t.parent, "client.commit", t0, t1)
	return err
}

func ms(d time.Duration) float64  { return float64(d) / 1e6 }
func msSince(t time.Time) float64 { return ms(time.Since(t)) }
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile returns the q-quantile of xs by nearest rank, and whether at
// least minBeyond samples lie above that rank — a percentile with fewer
// samples beyond it is not resolved by the sample. xs is sorted in place.
func quantile(xs []float64, q float64, minBeyond int) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i], len(xs)-1-i >= minBeyond
}

// median is the 0.5 quantile, or 0 for no samples.
func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5, 0)
	return v
}

// failRateUpper is the upper end of the 95% Wilson score interval for a
// failure probability seen as failed out of n. Unlike failed/n it is
// never 0, so a run without failures still yields a finite bound that
// more failures, or fewer transactions, make worse.
func failRateUpper(failed, n int) float64 {
	if n == 0 {
		return 1
	}
	const z = 1.96
	p, nf := float64(failed)/float64(n), float64(n)
	centre := p + z*z/(2*nf)
	spread := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	return (centre + spread) / (1 + z*z/nf)
}
