// Package client implements the Basil client: it drives interactive
// transactions through the Execution, Prepare and Writeback phases (paper
// §4), validates replica replies and certificates, and runs the recovery
// protocol for stalled transactions (paper §5).
//
// Ownership: a Client is the paper's closed-loop actor — one transaction
// at a time, driven by one goroutine; run one Client per concurrent
// actor. Internally the reply mux (pending map) is mutex-guarded because
// transport dispatchers deliver concurrently, and Stats fields are
// atomics bound into the metrics registry. A Txn belongs to its Client's
// goroutine and must not be shared.
package client

import (
	"errors"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/quorum"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/types"
)

// Errors surfaced to applications.
var (
	// ErrAborted reports that the transaction failed serializability
	// validation (application may retry).
	ErrAborted = errors.New("basil: transaction aborted")
	// ErrTimeout reports that a protocol phase starved even after
	// recovery; only possible under severe partitions.
	ErrTimeout = errors.New("basil: protocol timeout")
	// ErrConflictPending is returned internally when votes cannot yet be
	// classified.
	errPending = errors.New("basil: tally pending")
)

// Config parameterizes a client.
type Config struct {
	ID        int32 // client id; also the timestamp ClientID
	F         int
	NumShards int32
	// ShardOf maps keys to shards. Must agree across all nodes.
	ShardOf func(key string) int32

	Clock    clock.Clock
	Registry *cryptoutil.Registry
	SignerOf quorum.SignerOf
	Net      transport.Network

	// ReadWait is how many read replies the client waits for before
	// choosing a version: 1, f+1 (default) or 2f+1 (paper Fig. 5b). The
	// broadcast fans out to ReadWait+f replicas.
	ReadWait int
	// DisableFastPath forces the ST2 logging stage even for unanimous
	// shards (Basil-NoFP, Fig. 6a).
	DisableFastPath bool
	// FastPathWait bounds the extra time spent waiting for unanimity
	// after a classifiable quorum arrives.
	FastPathWait time.Duration
	// PhaseTimeout bounds each protocol phase before recovery kicks in.
	PhaseTimeout time.Duration
	// RetryTimeout bounds a whole commit attempt.
	RetryTimeout time.Duration
	// VerifyPool, if non-nil, parallelizes the signature checks of
	// multi-reply validations (tallies, certificates) across its workers —
	// the same bounded pool machinery the replica ingest path uses. Pools
	// may be shared between clients; verification falls back inline when
	// the pool is busy.
	VerifyPool *cryptoutil.VerifyPool

	// Metrics is the registry the client registers its instruments on:
	// bound Stats counters plus read-op, commit-op and end-to-end
	// transaction latency histograms. Nil creates a private registry
	// (exposed via Client.Metrics); metrics.Nop disables instrumentation.
	Metrics *metrics.Registry

	// Tracer, when non-nil, samples transactions at Begin and records the
	// client-side lifecycle spans; the sampling decision rides every
	// request as types.TraceContext. Transactions that hit an Overloaded
	// shed, recovery, or the fallback are force-captured regardless of the
	// sampling rate.
	Tracer *trace.Tracer
}

// Stats counts client-side protocol events.
type Stats struct {
	TxBegun        atomic.Uint64
	TxCommitted    atomic.Uint64
	TxAborted      atomic.Uint64
	FastPathTaken  atomic.Uint64
	SlowPathTaken  atomic.Uint64
	DepsAcquired   atomic.Uint64
	Recoveries     atomic.Uint64
	FallbackRounds atomic.Uint64
	ReadRetries    atomic.Uint64
	// Overloads counts explicit load-shed (types.Overloaded) replies; the
	// client answers them with jittered backoff (backoff.go).
	Overloads atomic.Uint64
}

// Client is a Basil client. It is safe for use by one goroutine at a time
// (the paper's closed-loop model); run one Client per concurrent actor.
type Client struct {
	cfg  Config
	qc   quorum.Config
	addr transport.Addr
	qv   *quorum.Verifier
	sv   *cryptoutil.SigVerifier
	// keys is the client's ephemeral X25519 key and the read-reply MAC
	// keys derived from it, one per replica; nil under the NoProofs
	// scheme.
	keys *cryptoutil.ClientKeys

	reqSeq atomic.Uint64
	// mu guards pending and recovered; held only for map bookkeeping,
	// never across a network wait.
	mu      sync.Mutex
	pending map[uint64]chan any
	// recent recovery attempts, for deduplication.
	recovered map[types.TxID]time.Time

	// Retry pacing state (backoff.go); both are touched only from the
	// client's own goroutine, per the one-goroutine-per-Client contract.
	rng       *rand.Rand
	retryHint time.Duration

	Stats Stats

	// reg is the metrics registry; the histograms are nil-safe no-op
	// handles when instrumentation is off (metrics.Nop). timed caches
	// reg.Enabled() so hot paths skip clock reads entirely when
	// instrumentation is off (the metrics-tax rule, basilvet BV005).
	reg     *metrics.Registry
	timed   bool
	hRead   *metrics.Histogram // one network Read op
	hCommit *metrics.Histogram // one Commit call (prepare + writeback)
	hTxn    *metrics.Histogram // end-to-end Begin -> successful commit

	// Tracing state for the current transaction. Plain fields are safe
	// under the one-goroutine-per-Client contract: every collect loop and
	// note runs on the client's own goroutine (Deliver only forwards into
	// channels). tracer is nil-safe throughout.
	tracer    *trace.Tracer
	traceNode string             // span node label, e.g. "c7"
	curTC     types.TraceContext // current transaction's wire context
	curRoot   uint64             // root span id from tracer.Begin
	curBegun  int64              // root span start anchor (tracer clock)
	forced    uint8              // forcedX bits already recorded this txn
}

// Forced-capture reason bits: each reason is recorded at most once per
// transaction, however many sheds or fallback rounds it hits.
const (
	forcedOverload uint8 = 1 << iota
	forcedRecovery
	forcedFallback
)

// forceTrace upgrades the current transaction's trace on a tail event
// (shed, recovery, fallback) so it is captured regardless of sampling.
func (c *Client) forceTrace(bit uint8, reason string) {
	if c.tracer == nil || c.curTC.TraceID == 0 || c.forced&bit != 0 {
		return
	}
	c.forced |= bit
	c.tracer.Force(&c.curTC, c.traceNode, reason)
}

// Metrics returns the client's registry (snapshot it in tests, serve it
// from an operator endpoint, or diff it across a bench window).
func (c *Client) Metrics() *metrics.Registry { return c.reg }

// markRecovery reports whether the client should attempt to finish id now
// (it has not tried within the dedup window).
func (c *Client) markRecovery(id types.TxID) bool {
	const window = 100 * time.Millisecond
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.recovered[id]; ok && now.Sub(t) < window {
		return false
	}
	if len(c.recovered) > 4096 {
		c.recovered = make(map[types.TxID]time.Time)
	}
	c.recovered[id] = now
	return true
}

// New constructs and registers a client on cfg.Net.
func New(cfg Config) *Client {
	if cfg.ReadWait <= 0 {
		cfg.ReadWait = cfg.F + 1
	}
	if cfg.FastPathWait <= 0 {
		cfg.FastPathWait = 2 * time.Millisecond
	}
	if cfg.PhaseTimeout <= 0 {
		cfg.PhaseTimeout = 250 * time.Millisecond
	}
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = 5 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	c := &Client{
		cfg:       cfg,
		qc:        quorum.Config{F: cfg.F},
		addr:      transport.ClientAddr(cfg.ID),
		sv:        cryptoutil.NewSigVerifier(cfg.Registry, 4096),
		pending:   make(map[uint64]chan any),
		recovered: make(map[types.TxID]time.Time),
		// Deterministic per-client seed: distinct clients jitter apart,
		// and a test run's pacing is reproducible.
		rng: rand.New(rand.NewSource(int64(cfg.ID)*2654435761 + 1)),
	}
	c.qv = &quorum.Verifier{Cfg: c.qc, Sigs: c.sv, SignerOf: cfg.SignerOf, Pool: cfg.VerifyPool}
	if cfg.Registry != nil && cfg.Registry.Scheme() != cryptoutil.SchemeNone {
		c.keys = cryptoutil.NewClientKeys()
	}
	c.tracer = cfg.Tracer
	c.traceNode = "c" + strconv.FormatInt(int64(cfg.ID), 10)
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c.initMetrics(reg)
	cfg.Net.Register(c.addr, c)
	return c
}

// Addr returns the client's transport address.
func (c *Client) Addr() transport.Addr { return c.addr }

// ID returns the client id.
func (c *Client) ID() int32 { return c.cfg.ID }

// Deliver implements transport.Handler: replies are routed to the pending
// request they answer.
func (c *Client) Deliver(_ transport.Addr, msg any) {
	var reqID uint64
	switch m := msg.(type) {
	case *types.ReadReply:
		reqID = m.ReqID
	case *types.ST1Reply:
		reqID = m.ReqID
	case *types.ST2Reply:
		reqID = m.ReqID
	case *types.Overloaded:
		reqID = m.ReqID
	default:
		return
	}
	c.mu.Lock()
	ch := c.pending[reqID]
	c.mu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- msg:
	default: // request already satisfied; drop the straggler
	}
}

// newRequest allocates a reply channel for a fresh request id.
func (c *Client) newRequest(buf int) (uint64, chan any) {
	id := c.reqSeq.Add(1)
	ch := make(chan any, buf)
	c.mu.Lock()
	c.pending[id] = ch
	c.mu.Unlock()
	return id, ch
}

// endRequest retires a request id.
func (c *Client) endRequest(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// replicasOf enumerates shard s's replica addresses.
func (c *Client) replicasOf(s int32) []transport.Addr {
	return transport.ShardAddrs(s, c.qc.N())
}

// send transmits msg to one replica.
func (c *Client) send(to transport.Addr, msg any) {
	c.cfg.Net.Send(c.addr, to, msg)
}

// broadcastShard sends msg to every replica of shard s, encoding the
// body once on wire transports.
func (c *Client) broadcastShard(s int32, msg any) {
	c.cfg.Net.SendAll(c.addr, c.replicasOf(s), msg)
}

// now returns the client's current timestamp time component.
func (c *Client) now() uint64 { return c.cfg.Clock.NowMicros() }
