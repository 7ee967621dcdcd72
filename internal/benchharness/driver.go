package benchharness

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/metrics"
	"repro/internal/tapir"
	"repro/internal/txbase"
	"repro/internal/types"
	"repro/internal/workload"
)

// BatchSize is the reply-signature batch size b every experiment runs
// Basil at unless the experiment itself varies b.
const BatchSize = 16

// The one retry backoff: a definitely aborted transaction waits a
// jittered [b, 2b) before its next attempt, with b doubling from
// backoffMin up to backoffMax.
const (
	backoffMin = 200 * time.Microsecond
	backoffMax = 10 * time.Millisecond
)

// openMaxRetries bounds the retries of one open-arrival transaction. A
// closed session retries until the run stops (the paper's closed loop);
// an open arrival gives up instead, so a hot conflict cannot hold a
// session while new arrivals queue behind it.
const openMaxRetries = 8

// openUsers is the simulated user population of an open-arrival run:
// arrival n belongs to user n%openUsers and draws its transaction from
// that user's own deterministic stream, so the workload does not depend
// on which session happens to execute it.
const openUsers = 1000

// Phase is one segment of an open-arrival rate profile: the Poisson
// arrival rate ramps linearly from StartRate to EndRate tx/s over Dur.
type Phase struct {
	Dur       time.Duration
	StartRate float64
	EndRate   float64
}

// Byzantine is a run's faulty client population in one vocabulary for
// the paper's §6.4 strategies and the line-rate spammer. Each Byzantine
// client loops over its own transactions: with probability Fraction a
// transaction misbehaves under Mode and is never retried; the rest run
// correctly, once. The spammer is FaultStallEarly at Fraction 1 with a
// Rate. Byzantine clients need a Basil system under test.
type Byzantine struct {
	Clients  int
	Mode     client.FaultMode
	Fraction float64
	// Rate caps each client's transactions per second (0 = unpaced). The
	// harness shares its process, and possibly its cores, with the
	// replicas under attack, so an unpaced loop measures CPU contention
	// between attacker and victim rather than the system's intake; a
	// paced one models a remote sender saturating the wire.
	Rate int
	// Gen is the Byzantine transactions' body (default: the honest
	// workload). A write-only body keeps a spammer at its rate: reads
	// are round trips, and a spammer that reads its own abandoned
	// prepared writes throttles itself.
	Gen workload.Generator
}

// RunConfig parameterizes one run of the load driver.
//
// Arrival is closed unless Phases is set: each of Clients sessions
// starts its next transaction when its last one finishes, for Warmup
// (unrecorded) plus Measure, and latency runs from a transaction's first
// invocation. With Phases, arrival is open: transactions arrive as a
// Poisson process at the profile's rate no matter how the system is
// doing, Clients sessions serve them from a queue of at most MaxPending
// waiting arrivals (an arrival that finds it full is dropped and
// counted), and latency runs from the intended arrival, so time spent
// queued for a session shows in the tail.
type RunConfig struct {
	Clients int // honest sessions
	Warmup  time.Duration
	Measure time.Duration
	// NoBackoff retries a definite abort at once, for experiments that
	// measure the client's own Overloaded pacing.
	NoBackoff bool
	Seed      int64

	Phases     []Phase
	MaxPending int
	// Bin is the resolution of Result.Bins, the commits-over-time record
	// that recovery times are measured on. Default 250ms.
	Bin time.Duration
	// StormStart and StormEnd delimit a chaos window as offsets from the
	// run's start. Transactions due before it are calm and those due
	// inside it are storm; with no window, all are calm.
	StormStart time.Duration
	StormEnd   time.Duration

	Byz Byzantine
}

func (c *RunConfig) withDefaults() {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Measure <= 0 {
		c.Measure = time.Second
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 128
	}
	if c.Bin <= 0 {
		c.Bin = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Result aggregates one run. Every recorded transaction ends exactly
// once: committed, application-aborted (the workload rolled back; not
// retried), starved (an open arrival out of retries), unknown (a timeout
// left the outcome undecided; terminal, and resolvable afterwards
// through the recovery protocol), or, for open arrival, dropped at the
// full queue.
type Result struct {
	System   string
	Workload string
	Clients  int

	Throughput float64 // commits per second of MeasureSecs
	MeanLatMs  float64
	P50LatMs   float64
	P90LatMs   float64
	P99LatMs   float64
	P999LatMs  float64
	CalmP99Ms  float64
	StormP99Ms float64
	CalmCount  uint64
	StormCount uint64
	CommitRate float64 // commits / attempts

	Offered   uint64 // open arrival only
	Commits   uint64
	Attempts  uint64
	AppAborts uint64
	Starved   uint64
	Unknowns  uint64
	Dropped   uint64
	// MeasureSecs is the recorded window: Measure for closed arrival, the
	// whole run including the drain of queued arrivals for open.
	MeasureSecs float64

	// Bins counts commits per BinDur of wall time from the run's start.
	Bins   []uint64
	BinDur time.Duration

	// Metas holds committed transactions' metadata (for systems that
	// expose it) for the serializability oracle; UnknownMetas holds the
	// transactions whose outcome a timeout left undecided. Both cover
	// the whole run, warmup and drain included: a closed run's unmeasured
	// commits are still history a later audit reads.
	Metas        []*types.TxMeta
	UnknownMetas []*types.TxMeta

	FaultyTxs       uint64  // misbehaving Byzantine transactions issued
	EquivocationsOK uint64  // equivocation attempts that actually diverged
	FaultShare      float64 // faulty / (faulty + honest commits), the paper's Fig. 7 x-axis

	// Basil systems only, counted over this run: replica admission
	// refusals (all causes, and those of reputation suspects below the
	// hard cap) and the Overloaded replies honest sessions consumed.
	Shed           uint64
	ShedReputation uint64
	Overloads      uint64
}

// job is one transaction to run, due at offset due from the run's start.
type job struct {
	fn  workload.TxnFunc
	due time.Duration
}

// metaTx is the optional SysTx extension systems expose for
// serializability auditing.
type metaTx interface{ Meta() *types.TxMeta }

// driver is one run's shared state.
type driver struct {
	sys   System
	gen   workload.Generator
	cfg   RunConfig
	open  bool
	start time.Time

	measuring atomic.Bool
	stop      atomic.Bool

	offered, commits, attempts, appAborts atomic.Uint64
	starved, unknowns, dropped            atomic.Uint64
	faulty, equivOK                       atomic.Uint64
	lat, calmLat, stormLat                metrics.Histogram
	bins                                  []atomic.Uint64
	mu                                    sync.Mutex
	metas, unknownMetas                   []*types.TxMeta
	before                                admissionCounts // at the run's start
}

// admissionCounts are a Basil cluster's cumulative admission counters:
// replica sheds (all causes, reputation suspects) and Overloaded replies
// its sessions consumed.
type admissionCounts struct{ shed, shedRep, overloads uint64 }

func readAdmission(sys System) admissionCounts {
	var a admissionCounts
	bs, ok := sys.(*BasilSystem)
	if !ok {
		return a
	}
	for s := 0; s < bs.C.Shards(); s++ {
		for i := 0; i < bs.C.ReplicaCount(); i++ {
			st := &bs.C.Replica(s, i).Stats
			a.shed += st.Shed.Load()
			a.shedRep += st.ShedReputation.Load()
		}
	}
	a.overloads = bs.Overloads()
	return a
}

// Run is the load driver: it drives gen against sys under cfg's arrival
// and client population and returns the aggregate. A transaction that
// commits, that the workload rolls back, or whose outcome a timeout
// leaves unknown is done; a definite abort is retried with the harness
// backoff.
func Run(sys System, gen workload.Generator, cfg RunConfig) Result {
	cfg.withDefaults()
	if cfg.Byz.Gen == nil {
		cfg.Byz.Gen = gen
	}
	d := &driver{sys: sys, gen: gen, cfg: cfg, open: len(cfg.Phases) > 0}
	total := cfg.Warmup + cfg.Measure
	if d.open {
		total = 0
		for _, p := range cfg.Phases {
			total += p.Dur
		}
	}
	// Generously sized for the drain after the last arrival; later
	// completions clamp into the final bin.
	d.bins = make([]atomic.Uint64, int(total/cfg.Bin)+8)

	var arrivals chan job
	if d.open {
		arrivals = make(chan job, cfg.MaxPending)
	}
	var sessions, byz sync.WaitGroup
	d.before = readAdmission(sys)
	d.start = time.Now()
	for i := 0; i < cfg.Clients; i++ {
		sess := sys.NewSession()
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
		sessions.Add(1)
		go func() {
			defer sessions.Done()
			d.session(sess, rng, arrivals)
		}()
	}
	if cfg.Byz.Clients > 0 {
		bs, ok := sys.(*BasilSystem)
		if !ok {
			panic("benchharness: Byzantine clients need a Basil system, not " + sys.Name())
		}
		for i := 0; i < cfg.Byz.Clients; i++ {
			c := bs.C.NewClient().Inner()
			rng := rand.New(rand.NewSource(cfg.Seed + 900_001 + int64(i)*104729))
			byz.Add(1)
			go func() {
				defer byz.Done()
				d.byzantine(c, rng)
			}()
		}
	}

	var elapsed time.Duration
	if d.open {
		d.measuring.Store(true)
		d.dispatch(arrivals, total)
		close(arrivals)
		sessions.Wait()
		elapsed = time.Since(d.start)
		d.stop.Store(true)
	} else {
		time.Sleep(cfg.Warmup)
		d.measuring.Store(true)
		t0 := time.Now()
		time.Sleep(cfg.Measure)
		d.measuring.Store(false)
		elapsed = time.Since(t0)
		d.stop.Store(true)
		sessions.Wait()
	}
	byz.Wait()
	return d.result(elapsed)
}

// dispatch walks the open-arrival Poisson schedule in real time: gaps
// are exponential at the profile's instantaneous rate, and an arrival
// that finds the queue full is dropped, never queued late.
func (d *driver) dispatch(arrivals chan<- job, total time.Duration) {
	rng := rand.New(rand.NewSource(d.cfg.Seed))
	var due time.Duration
	for seq := uint64(0); ; seq++ {
		r := rateAt(d.cfg.Phases, due)
		if r <= 0 {
			return
		}
		// Floor pathological gaps so a momentary huge rate cannot spin.
		due += max(time.Duration(rng.ExpFloat64()/r*float64(time.Second)), 10*time.Microsecond)
		if due >= total {
			return
		}
		if wait := due - time.Since(d.start); wait > 0 {
			time.Sleep(wait)
		}
		user := rand.New(rand.NewSource(int64(userStream(d.cfg.Seed, seq%openUsers, seq/openUsers))))
		d.offered.Add(1)
		select {
		case arrivals <- job{fn: d.gen.Next(user), due: due}:
		default:
			d.dropped.Add(1)
		}
	}
}

// session runs one honest session: closed, it draws its own next
// transaction until the run stops; open, it serves the arrival queue
// until the queue closes.
func (d *driver) session(sess Session, rng *rand.Rand, arrivals <-chan job) {
	if d.open {
		for j := range arrivals {
			d.execute(sess, rng, j)
		}
		return
	}
	for !d.stop.Load() {
		d.execute(sess, rng, job{fn: d.gen.Next(rng), due: time.Since(d.start)})
	}
}

// execute runs one transaction to its outcome.
func (d *driver) execute(sess Session, rng *rand.Rand, j job) {
	backoff := backoffMin
	for attempt := 0; !d.stop.Load(); attempt++ {
		measuring := d.measuring.Load()
		tx := sess.Begin()
		if measuring {
			d.attempts.Add(1)
		}
		err := j.fn.Body(tx)
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		switch {
		case err == nil:
			if d.measuring.Load() {
				d.committed(tx, j.due)
			} else {
				d.keepMeta(&d.metas, tx)
			}
			return
		case errors.Is(err, workload.ErrWorkloadAbort):
			if measuring {
				d.appAborts.Add(1)
			}
			return
		case isTimeout(err):
			if measuring {
				d.unknowns.Add(1)
			}
			d.keepMeta(&d.unknownMetas, tx)
			return
		}
		if d.open && attempt >= openMaxRetries {
			d.starved.Add(1)
			return
		}
		if !d.cfg.NoBackoff {
			time.Sleep(backoff + time.Duration(rng.Int63n(int64(backoff))))
			backoff = min(2*backoff, backoffMax)
		}
	}
}

// committed records a commit of a transaction due at offset due.
func (d *driver) committed(tx SysTx, due time.Duration) {
	done := time.Since(d.start)
	lat := max(done-due, 0)
	d.lat.Observe(lat)
	switch {
	case d.cfg.StormStart == 0 && d.cfg.StormEnd == 0, due < d.cfg.StormStart:
		d.calmLat.Observe(lat)
	case due < d.cfg.StormEnd:
		d.stormLat.Observe(lat)
	}
	d.bins[min(int(done/d.cfg.Bin), len(d.bins)-1)].Add(1)
	d.commits.Add(1)
	d.keepMeta(&d.metas, tx)
}

func (d *driver) keepMeta(into *[]*types.TxMeta, tx SysTx) {
	if mt, ok := tx.(metaTx); ok {
		d.mu.Lock()
		*into = append(*into, mt.Meta())
		d.mu.Unlock()
	}
}

// byzantine runs one Byzantine client until the run stops, in bursts
// every tick so a millisecond-granular sleep still reaches Rate.
func (d *driver) byzantine(c *client.Client, rng *rand.Rand) {
	const tick = 2 * time.Millisecond
	cfg := d.cfg.Byz
	burst := math.MaxInt
	if cfg.Rate > 0 {
		burst = max(cfg.Rate*int(tick)/int(time.Second), 1)
	}
	equiv := cfg.Mode == client.FaultEquivReal || cfg.Mode == client.FaultEquivForced
	for !d.stop.Load() {
		for b := 0; b < burst && !d.stop.Load(); b++ {
			fn := cfg.Gen.Next(rng)
			tx := c.Begin()
			if fn.Body(clientTx{tx}) != nil {
				tx.Abort()
				continue
			}
			if rng.Float64() >= cfg.Fraction {
				_ = tx.Commit()
				continue
			}
			ok := c.CommitFaulty(tx, cfg.Mode)
			if d.measuring.Load() {
				d.faulty.Add(1)
				if ok && equiv {
					d.equivOK.Add(1)
				}
			}
		}
		if cfg.Rate > 0 {
			time.Sleep(tick)
		}
	}
}

// result assembles the aggregate once every goroutine has joined.
func (d *driver) result(elapsed time.Duration) Result {
	const ms = 1e6 // ns per ms
	r := Result{
		System: d.sys.Name(), Workload: d.gen.Name(), Clients: d.cfg.Clients,
		Offered: d.offered.Load(), Commits: d.commits.Load(), Attempts: d.attempts.Load(),
		AppAborts: d.appAborts.Load(), Starved: d.starved.Load(),
		Unknowns: d.unknowns.Load(), Dropped: d.dropped.Load(),
		MeasureSecs: elapsed.Seconds(),
		BinDur:      d.cfg.Bin,
		Metas:       d.metas, UnknownMetas: d.unknownMetas,
		FaultyTxs: d.faulty.Load(), EquivocationsOK: d.equivOK.Load(),
		CalmCount: d.calmLat.Count(), StormCount: d.stormLat.Count(),
		CalmP99Ms:  d.calmLat.SnapshotHist().Quantile(0.99) / ms,
		StormP99Ms: d.stormLat.SnapshotHist().Quantile(0.99) / ms,
	}
	r.Throughput = float64(r.Commits) / r.MeasureSecs
	if r.Attempts > 0 {
		r.CommitRate = float64(r.Commits) / float64(r.Attempts)
	}
	if n := r.FaultyTxs + r.Commits; n > 0 {
		r.FaultShare = float64(r.FaultyTxs) / float64(n)
	}
	all := d.lat.SnapshotHist()
	r.MeanLatMs = all.MeanNanos() / ms
	r.P50LatMs = all.Quantile(0.50) / ms
	r.P90LatMs = all.Quantile(0.90) / ms
	r.P99LatMs = all.Quantile(0.99) / ms
	r.P999LatMs = all.Quantile(0.999) / ms
	r.Bins = make([]uint64, len(d.bins))
	for i := range d.bins {
		r.Bins[i] = d.bins[i].Load()
	}
	after := readAdmission(d.sys)
	r.Shed = after.shed - d.before.shed
	r.ShedReputation = after.shedRep - d.before.shedRep
	r.Overloads = after.overloads - d.before.overloads
	return r
}

// isTimeout reports whether err left a transaction's outcome unknown: a
// protocol phase timed out in any of the systems under test.
func isTimeout(err error) bool {
	return errors.Is(err, client.ErrTimeout) || errors.Is(err, tapir.ErrTimeout) ||
		errors.Is(err, txbase.ErrTimeout)
}

// rateAt returns the offered rate at offset t into the profile.
func rateAt(phases []Phase, t time.Duration) float64 {
	for _, p := range phases {
		if t < p.Dur {
			frac := float64(t) / float64(p.Dur)
			return p.StartRate + (p.EndRate-p.StartRate)*frac
		}
		t -= p.Dur
	}
	return 0
}

// userStream derives user u's op-n rng seed from the run seed —
// splitmix64 over the packed identity, mirroring internal/faults's
// identity-derived decision streams.
func userStream(seed int64, user, n uint64) uint64 {
	z := uint64(seed) ^ (user<<32 | n&math.MaxUint32)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// FindPeak sweeps client counts and returns the run with the highest
// throughput, mirroring the paper's "peak throughput" methodology.
// makeSystem must return a freshly populated system for each trial.
func FindPeak(makeSystem func() System, gen workload.Generator, clientCounts []int, cfg RunConfig) (Result, []Result) {
	var best Result
	var all []Result
	for _, n := range clientCounts {
		sys := makeSystem()
		c := cfg
		c.Clients = n
		r := Run(sys, gen, c)
		sys.Close()
		all = append(all, r)
		if r.Throughput > best.Throughput {
			best = r
		}
	}
	return best, all
}

// clientTx adapts the internal client transaction Byzantine clients run.
type clientTx struct{ t *client.Txn }

func (t clientTx) Read(k string) ([]byte, error) { return t.t.Read(k) }
func (t clientTx) Write(k string, v []byte)      { t.t.Write(k, v) }
