// Package replica implements a Basil replica: the MVTSO read path, the
// concurrency-control check of Algorithm 1 with dependency waiting, the
// two-stage Prepare protocol (ST1 votes, ST2 decision logging), writeback
// application, Merkle-batched reply signing (paper §4.4), and the
// per-transaction fallback protocol (paper §5).
//
// Concurrency model. Deliver hands every message to a bounded worker pool
// (Config.VerifyWorkers), so signature verification — the dominant CPU
// cost — and the striped store run in parallel across messages; the
// paper's claim that BFT transaction processing keeps the parallelism of
// non-BFT OCC stores depends on exactly this. Handlers therefore run
// concurrently and synchronize at three levels, never taken in the
// reverse order:
//
//  1. txState.mu — one mutex per transaction guards its protocol state
//     (vote, logged decision, views, ballots, waiters).
//  2. Replica.mu — guards only the txs/live/depWaiters maps and the
//     collect watermark.
//  3. store locks — internal to the store (stripes plus a narrow global
//     lock, see internal/store); store calls are leaves and may be made
//     while holding txState.mu.
//
// Signature verification — the dominant crypto cost — never runs under any
// of these: handlers validate certificates and tallies before touching
// protocol state, and batch checks fan out through the same pool
// (quorum.Verifier.Pool) with inline fallback. Reply *signing* is enqueued
// to the batcher from inside txState critical sections; with BatchSize=1
// (or on the enqueue that completes a batch) the signature is computed on
// the enqueueing goroutine, so a hot transaction's own replies serialize
// behind its lock — per transaction, never across transactions.
package replica

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/quorum"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wal"
)

// Config parameterizes a replica.
type Config struct {
	Shard int32
	Index int32 // replica index within the shard, 0..n-1
	F     int   // per-shard fault threshold; n = 5f+1

	// DeltaMicros is the δ admission bound: operations with timestamps
	// beyond local-clock+δ are refused (paper §4.1 Begin).
	DeltaMicros uint64

	// BatchSize and BatchDelay configure reply-signature batching
	// (paper §4.4). BatchSize 1 disables batching.
	BatchSize  int
	BatchDelay time.Duration

	// DataDir, if non-empty, makes the replica durable: stage-1 votes and
	// logged ST2 decisions reach a write-ahead log in this directory
	// before the replies they justify are sent, and a restarted replica
	// rebuilds its promises from it (Restore). Empty disables durability
	// (the original in-memory behavior).
	DataDir string
	// WALFlushDelay is the WAL group-commit window: concurrent appenders
	// inside one window share a single fsync. 0 uses the wal default.
	WALFlushDelay time.Duration
	// WALSyncDelay, if non-nil, is consulted before every WAL fsync and
	// the returned duration slept out first — the chaos harness's
	// slow-disk injection (see wal.Options.SyncDelay). Must be safe for
	// concurrent use. Nil injects nothing.
	WALSyncDelay func() time.Duration
	// CheckpointEvery, if positive, periodically garbage-collects store
	// history and finished replica protocol state below a clock-derived
	// watermark (now − 2δ) and — when DataDir is set — writes a durable
	// checkpoint, bounding log, store, and replica memory growth. Without
	// DataDir only the in-memory collection runs.
	CheckpointEvery time.Duration

	// VerifyWorkers sizes the ingest worker pool that verifies signatures
	// and runs message handlers concurrently. 0 defaults to GOMAXPROCS;
	// 1 reproduces the old serial message loop.
	VerifyWorkers int
	// DispatchQueue bounds the admission queue in front of the worker
	// pool: at most this many delivered messages may be in flight
	// (queued or executing); arrivals beyond it are shed with an explicit
	// types.Overloaded reply instead of growing memory or silently
	// stalling the transport (see admission.go). 0 uses the default
	// (defaultDispatchQueue); negative disables admission entirely —
	// unlimited intake, the pre-admission behavior benchmarks compare
	// against.
	DispatchQueue int
	// Stripes is the store's per-key lock-stripe count. 0 defaults to
	// store.DefaultStripes; 1 degenerates to a single key lock (the
	// pre-striping baseline the parallel experiment compares against).
	Stripes int

	Clock    clock.Clock
	Registry *cryptoutil.Registry
	// SignerID is this replica's global key-registry index.
	SignerID int32
	// SignerOf maps any (shard, replica) to its registry index.
	SignerOf quorum.SignerOf

	Net transport.Network

	// Byzantine, if non-nil, installs a misbehavior strategy (used by the
	// fault-injection harness). Nil means a correct replica.
	Byzantine ByzantineStrategy

	// AllowUnvalidatedST2 disables ST2 tally validation. Experiment use
	// only: it models the paper's "equiv-forced" worst case, where clients
	// are artificially allowed to log conflicting decisions at will.
	AllowUnvalidatedST2 bool

	// Metrics is the registry this replica registers its instruments on
	// (counters, deliver-latency histograms, WAL/checkpoint timings,
	// store gauges). Nil creates a private registry, exposed via
	// Replica.Metrics; pass metrics.Nop to disable instrumentation
	// entirely (benchmark baselines).
	Metrics *metrics.Registry

	// Tracer, if non-nil, records this replica's pipeline spans
	// (dispatch-queue wait, MVTSO check, quorum verification, WAL
	// group-commit wait) for transactions whose requests carry a sampled
	// trace context. Nil disables span recording; the unsampled path is
	// a single branch either way.
	Tracer *trace.Tracer
}

// ByzantineStrategy lets the fault harness corrupt a replica's visible
// behavior at well-defined interception points.
type ByzantineStrategy interface {
	// MutateVote may flip the replica's ST1 vote. Returning VoteNone
	// suppresses the reply entirely (unresponsiveness).
	MutateVote(id types.TxID, vote types.Vote) types.Vote
	// DropRead reports whether to ignore a read request.
	DropRead(key string) bool
}

// VoteEquivocator is an optional ByzantineStrategy extension: a strategy
// implementing it is consulted per *recipient* when a stored ST1 vote is
// about to be signed and sent, and may return a different vote for
// different clients — the replica-side twin of the equivocating client in
// internal/client/faulty.go. The stored vote (and the WAL promise behind
// it) is never changed; only the wire reply is corrupted, exactly what a
// Byzantine signer can do. Conflict evidence is stripped from a flipped
// vote, since the equivocator cannot forge a proof for the vote it
// invents.
type VoteEquivocator interface {
	// EquivocateVote returns the vote to send to this recipient.
	// Returning the input vote sends the honest reply; VoteNone
	// suppresses it.
	EquivocateVote(id types.TxID, to transport.Addr, vote types.Vote) types.Vote
}

// txState is the replica's per-transaction protocol state beyond the
// store's version bookkeeping. Each transaction has its own lock; handlers
// for different transactions never contend on it.
//
// Lifecycle (see lifecycle.go): a state is active while the protocol can
// still need it, finalized once a proven outcome landed, and collectable
// once it sits below the checkpoint watermark with every waiter answered —
// at which point the checkpoint pass removes it from Replica.txs. Late
// duplicates for a collected transaction are answered from the store's
// finalized table (Replica.lifecycleCheck), never by resurrecting votable
// state.
type txState struct {
	mu sync.Mutex

	id   types.TxID
	meta *types.TxMeta

	// checkStarted marks that some worker owns the (at most one) MVTSO
	// check for this transaction; later duplicates queue as voteWaiters.
	checkStarted bool

	// Stage-1 vote, once determined. Correct replicas never change it.
	vote         types.Vote
	voteReady    bool
	voteConflict *types.DecisionCert
	conflictMeta *types.TxMeta
	blockedBy    *types.TxMeta

	// Dependency waiting (Algorithm 1 line 15); allocated on the first
	// dependency, nil for the transactions that never wait.
	waitingOn  map[types.TxID]bool
	depAborted bool
	// Clients owed an ST1R once the vote resolves (bounded, evict-oldest;
	// see waiterSet).
	voteWaiters waiterSet

	// Stage-2 logged decision (paper §4.2 stage 2 / §5 views).
	decision       types.Decision
	decisionLogged bool
	viewDecision   uint64
	viewCurrent    uint64

	// Fallback election state: ballots per view (leader role).
	ballots map[uint64]map[int32]types.ElectFB

	// Clients interested in this transaction's outcome (recovery;
	// bounded, evict-oldest).
	interested waiterSet

	// abandonCharged: the owner was already charged (reputation feed)
	// for leaving this transaction prepared past the watermark; repeated
	// collection passes over a retained state must not charge twice.
	abandonCharged bool

	finalized bool
}

// Stats counts observable replica events; all fields are atomic.
type Stats struct {
	Reads          atomic.Uint64
	ST1s           atomic.Uint64
	VotesCommit    atomic.Uint64
	VotesAbort     atomic.Uint64
	Misbehavior    atomic.Uint64
	DepWaits       atomic.Uint64
	ST2s           atomic.Uint64
	Writebacks     atomic.Uint64
	FallbackInvoke atomic.Uint64
	Elections      atomic.Uint64
	DecFBs         atomic.Uint64
	SigsSigned     atomic.Uint64
	// SigsVerified counts ed25519 checks the replica's verifier ran;
	// answers from its caches are not counted.
	SigsVerified atomic.Uint64
	// TxCollected counts txStates reclaimed, by finalize once a
	// certificate proves the outcome or below the checkpoint watermark;
	// WaiterEvictions counts per-transaction waiter entries
	// displaced by the evict-oldest cap; StaleDrops counts below-watermark
	// messages for unknown transactions dropped instead of re-run (the
	// resurrection guard's third verdict).
	TxCollected     atomic.Uint64
	WaiterEvictions atomic.Uint64
	StaleDrops      atomic.Uint64
	// Shed counts messages refused by the admission queue (admission.go);
	// ShedReputation is the subset refused early for a bad client score.
	Shed           atomic.Uint64
	ShedReputation atomic.Uint64
}

// Replica is one Basil replica for one shard.
type Replica struct {
	cfg     Config
	qc      quorum.Config
	addr    transport.Addr
	signer  cryptoutil.Signer
	batcher *cryptoutil.BatchSigner
	sv      *cryptoutil.SigVerifier
	qv      *quorum.Verifier
	store   *store.Store
	pool    *cryptoutil.VerifyPool
	// macKeys holds the read-reply MAC key shared with each client key
	// seen (bounded; nil under the NoProofs scheme).
	macKeys *cryptoutil.MACKeyCache
	// adm is the bounded admission queue and per-client reputation table
	// in front of the pool (admission.go).
	adm *admission

	// shardAddrs is the static membership of this replica's shard, the
	// tos slice for whole-shard broadcasts.
	shardAddrs []transport.Addr

	// mu guards the maps below and collectWM; per-transaction state is
	// behind each txState's own mutex.
	mu  sync.Mutex
	txs map[types.TxID]*txState
	// live indexes the subset of txs holding an unfinalized durable
	// promise (voteReady or decisionLogged) — exactly what checkpoint
	// capture must persist, so appendTxSnapshot walks this instead of all
	// of history. Maintained by markLive/unmarkLive at every promise flip
	// and finalize.
	live map[types.TxID]*txState
	// collectWM is the highest watermark protocol state has been collected
	// below (lifecycle.go): messages under it for unknown transactions are
	// served from the store's finalized table or dropped, never re-run.
	collectWM types.Timestamp
	// depWaiters: transaction id -> ids of transactions whose vote waits
	// on its decision.
	depWaiters map[types.TxID][]types.TxID

	// wal is the durability log (nil when Config.DataDir is empty);
	// walFailed mutes the replica after an append failure — fail-stop,
	// never fail-equivocate (see durability.go).
	wal       *wal.Log
	walFailed atomic.Bool
	ckptStop  chan struct{}
	ckptWG    sync.WaitGroup
	// applyMu fences finalize's log-then-apply pair against checkpoint
	// rotation: held shared from before the final record is appended
	// until the store apply completes, taken exclusively (and released
	// immediately) by Checkpoint between rotating the log and reading
	// the snapshot. Without it a final record could land in a superseded
	// segment while its store apply races past the snapshot capture —
	// pruned from the log, missing from the snapshot, gone.
	applyMu sync.RWMutex

	closed    atomic.Bool
	closeOnce sync.Once

	Stats Stats

	// reg is the metrics registry; mx the live instrument handles bound
	// on it (see metrics.go). Both are fixed at construction.
	reg *metrics.Registry
	mx  replicaMetrics

	// tracer/traceNode record pipeline spans for sampled transactions;
	// frec is the always-on flight recorder of infrequent control-plane
	// events (sheds, reputation actions, checkpoints, mute cause), dumped
	// to stderr when the replica mutes and served at /debug/flightrec.
	tracer    *trace.Tracer
	traceNode string
	frec      *trace.FlightRecorder
}

// macKeyCacheSize bounds the per-client read-reply MAC keys a replica
// keeps (about 100 bytes each). A client beyond it costs one X25519
// exchange per admitted read.
const macKeyCacheSize = 4096

// New constructs and registers a replica on cfg.Net. With a DataDir it
// opens (and replays) the durability log, panicking if the directory is
// unusable — use Restore for an error-returning restart path.
func New(cfg Config) *Replica {
	r, err := Restore(cfg, cfg.DataDir)
	if err != nil {
		panic(fmt.Sprintf("replica: data dir %s: %v", cfg.DataDir, err))
	}
	return r
}

// Restore constructs a replica whose durable state lives in dir,
// replaying any existing write-ahead log (newest checkpoint + suffix)
// before the replica is registered on the network: the prepared set,
// fixed stage-1 votes, logged ST2 decisions, finalized outcomes, and a
// conservative RTS floor all come back exactly as promised pre-crash. An
// empty dir (on disk or as an argument) degrades gracefully: a fresh
// durable replica, or with dir == "" a purely in-memory one.
func Restore(cfg Config, dir string) (*Replica, error) {
	cfg.DataDir = dir
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 1
	}
	if cfg.BatchDelay <= 0 {
		cfg.BatchDelay = 500 * time.Microsecond
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	stripes := cfg.Stripes
	if stripes <= 0 {
		stripes = store.DefaultStripes
	}
	r := &Replica{
		cfg:        cfg,
		qc:         quorum.Config{F: cfg.F},
		addr:       transport.ReplicaAddr(cfg.Shard, cfg.Index),
		signer:     cfg.Registry.Signer(cfg.SignerID),
		sv:         cryptoutil.NewSigVerifier(cfg.Registry, 4096),
		store:      store.NewStriped(stripes),
		pool:       cryptoutil.NewVerifyPool(cfg.VerifyWorkers),
		macKeys:    cryptoutil.NewMACKeyCache(cfg.Registry, cfg.SignerID, macKeyCacheSize),
		txs:        make(map[types.TxID]*txState),
		live:       make(map[types.TxID]*txState),
		depWaiters: make(map[types.TxID][]types.TxID),
		ckptStop:   make(chan struct{}),
	}
	r.sv.CountChecks(&r.Stats.SigsVerified)
	r.shardAddrs = transport.ShardAddrs(cfg.Shard, r.qc.N())
	r.tracer = cfg.Tracer
	r.traceNode = fmt.Sprintf("r%d.%d", cfg.Shard, cfg.Index)
	r.frec = trace.NewFlightRecorder(r.traceNode, 0)
	r.adm = newAdmission(r, cfg.DispatchQueue)
	r.batcher = cryptoutil.NewBatchSigner(r.signer, cfg.BatchSize, cfg.BatchDelay)
	r.qv = &quorum.Verifier{Cfg: r.qc, Sigs: r.sv, SignerOf: cfg.SignerOf, Pool: r.pool}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	r.initMetrics(reg)
	if dir != "" {
		appendLat, syncLat, pruneFails := walMetrics(reg)
		l, recov, err := wal.Open(wal.Options{
			Dir:           dir,
			FlushDelay:    cfg.WALFlushDelay,
			SyncDelay:     cfg.WALSyncDelay,
			AppendLatency: appendLat,
			SyncLatency:   syncLat,
			PruneFailures: pruneFails,
		})
		if err != nil {
			return nil, err
		}
		r.wal = l
		r.bindWALMetrics()
		if err := r.replay(recov); err != nil {
			//nolint:basilvet — close-on-error path: the replay error already aborts Restore and is what the caller sees; nothing was promised yet, so the close error adds nothing.
			l.Close()
			return nil, err
		}
	}
	// Register only after replay: no message may race the rebuild.
	cfg.Net.Register(r.addr, r)
	r.frec.Note("start", "serving")
	if cfg.CheckpointEvery > 0 {
		r.ckptWG.Add(1)
		go r.checkpointLoop()
	}
	return r, nil
}

// Addr returns the replica's transport address.
func (r *Replica) Addr() transport.Addr { return r.addr }

// Store exposes the underlying store (examples, tests, GC drivers).
func (r *Replica) Store() *store.Store { return r.store }

// FlightRecorder exposes the replica's event ring (serve it with
// trace.FlightHandler, or snapshot it in tests and postmortems).
func (r *Replica) FlightRecorder() *trace.FlightRecorder { return r.frec }

// Close drains the ingest pool (every in-flight handler completes, so no
// one is left blocked inside a WAL append), flushes the reply batcher,
// and finally syncs and closes the durability log. Messages delivered
// after Close — late duplicates are routine in an asynchronous network —
// are dropped without touching the closed pool or batcher. Idempotent.
func (r *Replica) Close() {
	r.closeOnce.Do(func() {
		r.closed.Store(true)
		r.pool.Close()
		r.batcher.Close()
		close(r.ckptStop)
		r.ckptWG.Wait()
		if r.wal != nil {
			//nolint:basilvet — shutdown path with no caller to report to: every promise was already durable when its handler replied (walAppend mutes on failure), so a final-sync error here cannot un-promise anything; restart replays the log regardless.
			r.wal.Close()
		}
	})
}

// LoadGenesis installs a key's initial value outside the protocol.
func (r *Replica) LoadGenesis(key string, value []byte) {
	r.store.ApplyGenesis(key, value)
}

// Deliver implements transport.Handler: each message passes the bounded
// admission queue (admission.go) and is dispatched onto the worker pool,
// so crypto-heavy validation and disjoint-key store operations from
// different messages proceed in parallel. Over-capacity arrivals are shed
// with an explicit Overloaded reply instead of queuing without bound.
// Per-sender FIFO is deliberately not preserved — the protocol already
// tolerates an asynchronous, reordering network.
func (r *Replica) Deliver(from transport.Addr, msg any) {
	if r.closed.Load() || r.walFailed.Load() {
		// A replica that cannot make its promises durable stops making
		// promises: fail-stop, never fail-equivocate.
		return
	}
	if !r.adm.admit(from, msg) {
		return
	}
	// Dispatch-queue wait: from admission to a pool worker picking the
	// message up. enq stays 0 — no clock read — unless the message
	// carries a sampled trace context.
	var tc types.TraceContext
	var enq int64
	if r.tracer != nil {
		tc = types.TraceContextOf(msg)
		enq = r.tracer.Start(tc)
	}
	if !r.pool.Go(func() {
		defer r.adm.release()
		r.tracer.End(tc, r.traceNode, "replica.dispatch_wait", 0, enq)
		r.dispatch(from, msg)
	}) {
		r.adm.release() // pool closed under us; the slot must not leak
	}
}

// dispatch routes one message to its handler on a pool worker, timing
// the handler into the per-kind deliver-latency histogram. The clock
// reads are skipped entirely when metrics are disabled (mx.timed false),
// keeping the Nop configuration an honest uninstrumented baseline.
func (r *Replica) dispatch(from transport.Addr, msg any) {
	var t0 time.Time
	if r.mx.timed {
		t0 = time.Now()
	}
	kind := -1
	switch m := msg.(type) {
	case *types.ReadRequest:
		kind = kindRead
		r.onRead(from, m)
	case *types.AbortRead:
		kind = kindAbortRead
		r.store.DropRTS(m.Keys, m.Ts)
	case *types.ST1Request:
		kind = kindST1
		r.onST1(from, m)
	case *types.ST2Request:
		kind = kindST2
		r.onST2(from, m)
	case *types.WritebackRequest:
		kind = kindWriteback
		r.onWriteback(from, m)
	case *types.InvokeFB:
		kind = kindInvokeFB
		r.onInvokeFB(from, m)
	case *types.ElectFB:
		kind = kindElectFB
		r.onElectFB(from, m)
	case *types.DecFB:
		kind = kindDecFB
		r.onDecFB(from, m)
	}
	if r.mx.timed && kind >= 0 {
		r.mx.deliver[kind].Since(t0)
	}
}

// tx returns (creating if needed) the protocol state for id. It takes
// only the map lock; callers lock the returned state themselves.
func (r *Replica) tx(id types.TxID) *txState {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.txs[id]
	if t == nil {
		t = &txState{id: id}
		r.txs[id] = t
	}
	return t
}

// peekTx returns the state for id without creating it.
func (r *Replica) peekTx(id types.TxID) *txState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.txs[id]
}

// send is a convenience wrapper.
func (r *Replica) send(to transport.Addr, msg any) {
	r.cfg.Net.Send(r.addr, to, msg)
}

// broadcastShard sends msg to every replica of this shard (self included)
// with one body encode on wire transports. Shard membership is static, so
// the address slice is computed once at construction.
func (r *Replica) broadcastShard(msg any) {
	r.cfg.Net.SendAll(r.addr, r.shardAddrs, msg)
}

// signThen enqueues payload for (batched) signing; done receives the
// completed signature and typically attaches it to a reply and sends it.
func (r *Replica) signThen(payload []byte, done func(types.Signature)) {
	r.Stats.SigsSigned.Add(1)
	//nolint:basilvet — deliberate design (package doc): replies enqueue for Merkle-batch signing under t.mu so each transaction's replies stay ordered with its state changes; Enqueue only appends to the batch under the batcher's own short mutex, the signing itself runs on the batcher goroutine.
	r.batcher.Enqueue(payload, done)
}
