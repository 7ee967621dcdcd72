// Package basil is the public API of this Basil reproduction: a
// leaderless, transactional, Byzantine fault-tolerant key-value store
// (Suri-Payer et al., SOSP 2021).
//
// A Cluster wires s shards of n = 5f+1 replicas over a transport; Clients
// run interactive serializable transactions against it:
//
//	cl := basil.NewCluster(basil.Options{F: 1, Shards: 1})
//	defer cl.Close()
//	c := cl.NewClient()
//	err := c.Run(func(tx *basil.Txn) error {
//	    v, _ := tx.Read("balance")
//	    tx.Write("balance", next(v))
//	    return nil
//	})
//
// The store guarantees Byzantine serializability (correct clients observe
// a serializable history producible by correct participants alone) and
// Byzantine independence (no group of only-Byzantine participants decides
// the outcome of a correct client's transaction).
package basil

import (
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/cryptoutil"
	"repro/internal/quorum"
	"repro/internal/replica"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/types"
)

// ErrAborted is returned by Txn.Commit when the transaction failed
// serializability validation; the application may retry.
var ErrAborted = client.ErrAborted

// ErrTimeout is returned when a protocol phase starved even after
// recovery (severe partition or overload).
var ErrTimeout = client.ErrTimeout

// Options configures a Cluster. The zero value is completed with sane
// defaults by NewCluster.
type Options struct {
	// F is the per-shard fault threshold; each shard runs 5F+1 replicas.
	// Default 1.
	F int
	// Shards is the number of data shards. Default 1.
	Shards int
	// NoSignatures disables all signing/verification (the paper's
	// Basil-NoProofs ablation, Fig. 5a).
	NoSignatures bool
	// BatchSize is the reply-signature batch size b (paper §4.4, Fig 6b).
	// Default 1 (no batching).
	BatchSize int
	// VerifyWorkers sizes each replica's ingest worker pool (and the pool
	// clients share for certificate verification): signature checks and
	// message handling run concurrently on it. 0 defaults to GOMAXPROCS;
	// 1 reproduces the old serial message loop.
	VerifyWorkers int
	// StoreStripes is each replica store's per-key lock-stripe count.
	// 0 defaults to store.DefaultStripes; 1 is the single-lock baseline
	// the parallel experiment compares against.
	StoreStripes int
	// DeltaMicros is the timestamp admission bound δ. Default 60s.
	DeltaMicros uint64
	// DataDir, if non-empty, makes every replica durable: stage-1 votes
	// and logged ST2 decisions reach a per-replica write-ahead log under
	// DataDir/s<shard>-r<index> before the replies they justify are
	// sent, and RestartReplica rebuilds a crashed replica from it.
	DataDir string
	// WALSyncDelay, if non-nil, is consulted before every WAL fsync on
	// replica (shard, index) and the returned duration is slept out first
	// — the scenario harness's slow-disk chaos injection (see
	// wal.Options.SyncDelay). Must be safe for concurrent use; every
	// replica's WAL consults it before each group commit. Requires
	// DataDir.
	WALSyncDelay func(shard, index int32) time.Duration
	// CheckpointEvery, if positive, periodically checkpoints each
	// replica at a clock-derived GC watermark, bounding memory growth
	// (store GC and collection of protocol state below the watermark).
	// With DataDir it also snapshots the replica and prunes its log.
	CheckpointEvery time.Duration
	// ReadWait is how many read replies a client needs: 1, F+1 (default)
	// or 2F+1 (Fig. 5b).
	ReadWait int
	// DisableFastPath forces ST2 logging on every commit (Fig. 6a NoFP).
	DisableFastPath bool
	// FastPathWait bounds the extra wait for fast-path unanimity.
	FastPathWait time.Duration
	// PhaseTimeout bounds each protocol phase before recovery kicks in.
	PhaseTimeout time.Duration
	// RetryTimeout bounds a whole commit attempt.
	RetryTimeout time.Duration
	// ShardOf overrides key placement (default: FNV-1a hash mod Shards).
	ShardOf func(key string) int32
	// Clock overrides the time source (tests inject skewed clocks).
	Clock clock.Clock
	// Seed makes key generation deterministic. Default 1.
	Seed int64
	// Net overrides the transport (default: in-process Local network).
	// Mutually exclusive with TCPLoopback.
	Net *transport.Local
	// TCPLoopback runs every replica and every client on its own TCP
	// transport bound to 127.0.0.1 — one socket mesh inside one process,
	// carrying the exact framed wire format a real multi-process
	// deployment uses (see internal/transport/tcp.go). Useful for
	// measuring the wire path without multi-process orchestration.
	TCPLoopback bool
	// ReplicaByzantine, if set, installs a misbehavior strategy on the
	// selected replicas. Used by the fault-injection harness.
	ReplicaByzantine func(shard, index int32) replica.ByzantineStrategy
	// AllowUnvalidatedST2 disables replica-side ST2 tally validation.
	// Test/experiment use only: it models the paper's "equiv-forced"
	// scenario where clients are artificially allowed to equivocate.
	AllowUnvalidatedST2 bool
	// DispatchQueue caps each replica's admitted-but-unprocessed message
	// count: arrivals beyond it are shed with an explicit Overloaded reply
	// instead of queueing without bound (see internal/replica/admission.go).
	// 0 uses the replica default; negative disables admission control (the
	// unbounded pre-admission behavior, kept as the overload-experiment
	// baseline).
	DispatchQueue int
	// Tracing enables the end-to-end transaction tracer (internal/trace):
	// one shared Tracer spans clients, transports and replicas, served at
	// /traces on the admin server. Off by default — the seed-identical
	// configuration carries a nil tracer everywhere.
	Tracing bool
	// TraceSample is the probability a transaction is sampled at Begin
	// (requires Tracing). Transactions that hit an Overloaded shed,
	// recovery, or the fallback are captured regardless, so 0 keeps only
	// the tail traces.
	TraceSample float64
	// TraceRing bounds the completed-span ring; 0 uses the trace default.
	TraceRing int
}

func (o *Options) withDefaults() {
	if o.F <= 0 {
		o.F = 1
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 1
	}
	if o.DeltaMicros == 0 {
		o.DeltaMicros = 60_000_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	if o.ShardOf == nil {
		shards := int32(o.Shards)
		o.ShardOf = func(key string) int32 {
			h := fnv.New32a()
			h.Write([]byte(key))
			return int32(h.Sum32() % uint32(shards))
		}
	}
}

// Cluster is a running Basil deployment: Shards×(5F+1) replicas attached
// to one transport, plus the key registry all parties verify against.
type Cluster struct {
	opts    Options
	net     *transport.Local
	ownNet  bool
	tcpBook map[transport.Addr]string // TCPLoopback address book

	// tcpMu guards tcpNets: TCPLoopback clients register transports
	// concurrently with Close tearing them down.
	tcpMu   sync.Mutex
	tcpNets []*transport.TCP // every owned TCP transport; guarded by tcpMu

	registry *cryptoutil.Registry
	replicas [][]*replica.Replica // [shard][index]
	signerOf quorum.SignerOf
	nextCli  atomic.Int32
	clients  []*Client
	// tracer is shared by every client, transport and replica of the
	// cluster (nil when Options.Tracing is off — all record paths are
	// nil-safe).
	tracer *trace.Tracer
	// cliPool is the verification pool shared by every client of this
	// cluster (replicas each own their ingest pool).
	cliPool *cryptoutil.VerifyPool
}

// NewCluster builds and starts a cluster.
func NewCluster(opts Options) *Cluster {
	opts.withDefaults()
	n := 5*opts.F + 1
	net := opts.Net
	own := false
	if opts.TCPLoopback && net != nil {
		panic("basil: Options.Net and TCPLoopback are mutually exclusive")
	}
	if net == nil && !opts.TCPLoopback {
		net = transport.NewLocal()
		own = true
		if q := opts.DispatchQueue; q >= 0 {
			if q == 0 {
				q = 1024 // mirrors the replica's default admission cap
			}
			// Bound the replica mailboxes too, with headroom above the
			// admission cap so floods are shed with an Overloaded reply by
			// admission rather than dropped silently at the mailbox.
			net.SetReplicaQueueCap(4 * q)
		}
	}
	reg := cryptoutil.NewRegistry(schemeOf(opts), opts.Shards*n, opts.Seed)
	signerOf := func(shard, idx int32) int32 { return shard*int32(n) + idx }
	c := &Cluster{
		opts: opts, net: net, ownNet: own, registry: reg, signerOf: signerOf,
		replicas: make([][]*replica.Replica, opts.Shards),
		cliPool:  cryptoutil.NewVerifyPool(opts.VerifyWorkers),
	}
	if opts.Tracing {
		c.tracer = trace.New(trace.Options{SampleRate: opts.TraceSample, RingSize: opts.TraceRing})
	}
	if opts.TCPLoopback {
		c.tcpBook = make(map[transport.Addr]string)
	}
	for s := 0; s < opts.Shards; s++ {
		c.replicas[s] = make([]*replica.Replica, n)
		for i := 0; i < n; i++ {
			var nodeNet transport.Network = net
			if opts.TCPLoopback {
				// Each replica is its own "process": a listener on an
				// ephemeral loopback port, registered in the shared
				// address book before any traffic flows.
				tn := c.newTCPNet("127.0.0.1:0")
				c.tcpBook[transport.ReplicaAddr(int32(s), int32(i))] = tn.ListenAddr()
				nodeNet = tn
			}
			c.replicas[s][i] = replica.New(c.replicaConfig(int32(s), int32(i), nodeNet))
		}
	}
	return c
}

// replicaConfig builds the replica configuration for (shard, index) on
// nodeNet — shared between initial construction and RestartReplica so a
// restarted replica runs exactly the configuration it crashed with.
func (c *Cluster) replicaConfig(s, i int32, nodeNet transport.Network) replica.Config {
	cfg := replica.Config{
		Shard: s, Index: i, F: c.opts.F,
		DeltaMicros:   c.opts.DeltaMicros,
		BatchSize:     c.opts.BatchSize,
		VerifyWorkers: c.opts.VerifyWorkers, Stripes: c.opts.StoreStripes,
		Clock: c.opts.Clock, Registry: c.registry,
		SignerID: c.signerOf(s, i), SignerOf: c.signerOf,
		Net:                 nodeNet,
		DataDir:             c.replicaDataDir(s, i),
		CheckpointEvery:     c.opts.CheckpointEvery,
		AllowUnvalidatedST2: c.opts.AllowUnvalidatedST2,
		DispatchQueue:       c.opts.DispatchQueue,
		Tracer:              c.tracer,
	}
	if c.opts.ReplicaByzantine != nil {
		cfg.Byzantine = c.opts.ReplicaByzantine(s, i)
	}
	if d := c.opts.WALSyncDelay; d != nil {
		cfg.WALSyncDelay = func() time.Duration { return d(s, i) }
	}
	return cfg
}

// replicaDataDir returns the per-replica WAL directory ("" when the
// cluster is not durable).
func (c *Cluster) replicaDataDir(s, i int32) string {
	if c.opts.DataDir == "" {
		return ""
	}
	return filepath.Join(c.opts.DataDir, fmt.Sprintf("s%d-r%d", s, i))
}

// RestartReplica models a crash-restart: the old replica (already Closed
// by the caller, or closed here) is replaced by one rebuilt from its
// write-ahead log, taking over the same address. The restarted replica
// rejoins with every pre-crash promise — stage-1 votes, logged
// decisions, finalized outcomes — intact. Requires Options.DataDir;
// TCPLoopback clusters are not restartable in-process (each replica owns
// a listener whose port dies with it).
func (c *Cluster) RestartReplica(shard, index int) (*replica.Replica, error) {
	if c.opts.DataDir == "" {
		return nil, errors.New("basil: RestartReplica needs Options.DataDir")
	}
	if c.opts.TCPLoopback {
		return nil, errors.New("basil: RestartReplica unsupported over TCPLoopback")
	}
	old := c.replicas[shard][index]
	old.Close()
	r, err := replica.Restore(
		c.replicaConfig(int32(shard), int32(index), c.net),
		c.replicaDataDir(int32(shard), int32(index)))
	if err != nil {
		return nil, err
	}
	c.replicas[shard][index] = r
	return r, nil
}

// newTCPNet creates one owned TCP transport over the cluster's shared
// address book. Loopback listen failures mean the host cannot run the
// requested topology at all, so they are fatal.
func (c *Cluster) newTCPNet(listen string) *transport.TCP {
	tn, err := transport.NewTCPOpts(listen, c.tcpBook, transport.TCPOptions{Tracer: c.tracer})
	if err != nil {
		panic(fmt.Sprintf("basil: TCPLoopback transport: %v", err))
	}
	c.tcpMu.Lock()
	c.tcpNets = append(c.tcpNets, tn)
	c.tcpMu.Unlock()
	return tn
}

// clientNet returns the transport a new client should attach to: the
// shared net, or (TCPLoopback) a fresh client-only TCP transport that
// reaches replicas through the address book and receives replies over
// its dialed connections (reverse routing).
func (c *Cluster) clientNet() transport.Network {
	if !c.opts.TCPLoopback {
		return c.net
	}
	return c.newTCPNet("")
}

func schemeOf(o Options) cryptoutil.Scheme {
	if o.NoSignatures {
		return cryptoutil.SchemeNone
	}
	return cryptoutil.SchemeEd25519
}

// Load installs a key's initial value on its shard (genesis version,
// outside the protocol). Call before serving traffic.
func (c *Cluster) Load(key string, value []byte) {
	s := c.opts.ShardOf(key)
	for _, r := range c.replicas[s] {
		r.LoadGenesis(key, value)
	}
}

// NewClient attaches a new client to the cluster.
func (c *Cluster) NewClient() *Client {
	return c.newClientWithClock(c.opts.Clock)
}

// NewClientWithClock attaches a client that uses its own clock — used by
// tests to model clock skew between a client and the replicas (δ bound).
func (c *Cluster) NewClientWithClock(clk clock.Clock) *Client {
	return c.newClientWithClock(clk)
}

func (c *Cluster) newClientWithClock(clk clock.Clock) *Client {
	id := c.nextCli.Add(1)
	inner := client.New(client.Config{
		ID: id, F: c.opts.F, NumShards: int32(c.opts.Shards),
		ShardOf: c.opts.ShardOf, Clock: clk,
		Registry: c.registry, SignerOf: c.signerOf, Net: c.clientNet(),
		ReadWait: c.opts.ReadWait, DisableFastPath: c.opts.DisableFastPath,
		FastPathWait: c.opts.FastPathWait, PhaseTimeout: c.opts.PhaseTimeout,
		RetryTimeout: c.opts.RetryTimeout, VerifyPool: c.cliPool,
		Tracer: c.tracer,
	})
	cl := &Client{inner: inner}
	c.clients = append(c.clients, cl)
	return cl
}

// Replica exposes a replica for inspection or fault injection in tests.
func (c *Cluster) Replica(shard, index int) *replica.Replica {
	return c.replicas[shard][index]
}

// ReplicaCount returns replicas per shard (5F+1).
func (c *Cluster) ReplicaCount() int { return 5*c.opts.F + 1 }

// Shards returns the shard count.
func (c *Cluster) Shards() int { return c.opts.Shards }

// Net exposes the transport for policy injection (latency, partitions).
// It is nil when the cluster runs over TCPLoopback — link policies apply
// to the in-process Local network only.
func (c *Cluster) Net() *transport.Local { return c.net }

// Tracer exposes the cluster's shared transaction tracer (nil unless
// Options.Tracing): snapshot it in tests, or mount its handlers on an
// admin server via trace.TracesHandler and friends.
func (c *Cluster) Tracer() *trace.Tracer { return c.tracer }

// Close flushes replicas, drains the client verification pool, and stops
// the owned transports.
func (c *Cluster) Close() {
	for _, shard := range c.replicas {
		for _, r := range shard {
			r.Close()
		}
	}
	c.cliPool.Close()
	if c.ownNet {
		c.net.Close()
	}
	c.tcpMu.Lock()
	nets := c.tcpNets
	c.tcpNets = nil
	c.tcpMu.Unlock()
	for _, tn := range nets {
		tn.Close()
	}
}

// Client is a Basil client handle. Use one per concurrent actor.
type Client struct {
	inner *client.Client
}

// Txn is one interactive transaction: reads reach replicas, writes buffer
// locally until Commit.
type Txn struct {
	inner *client.Txn
}

// Begin starts a transaction.
func (c *Client) Begin() *Txn { return &Txn{inner: c.inner.Begin()} }

// Stats exposes client protocol counters.
func (c *Client) Stats() *client.Stats { return &c.inner.Stats }

// Inner exposes the internal client to the benchmark harness and fault
// injectors; applications should not need it.
func (c *Client) Inner() *client.Client { return c.inner }

// Run executes fn inside a transaction, retrying serialization aborts
// with exponential backoff (the paper's closed-loop client behavior).
// fn may return ErrAborted itself to force a retry.
func (c *Client) Run(fn func(tx *Txn) error) error {
	backoff := 200 * time.Microsecond
	for attempt := 0; ; attempt++ {
		tx := c.Begin()
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrAborted) && !errors.Is(err, ErrTimeout) {
			return err
		}
		if attempt > 50 {
			return fmt.Errorf("basil: transaction starved after %d attempts: %w", attempt, err)
		}
		time.Sleep(backoff)
		if backoff < 20*time.Millisecond {
			backoff *= 2
		}
	}
}

// Read returns key's value at the transaction's snapshot timestamp.
func (t *Txn) Read(key string) ([]byte, error) { return t.inner.Read(key) }

// Write buffers a write, visible to others only after Commit.
func (t *Txn) Write(key string, value []byte) { t.inner.Write(key, value) }

// Commit validates and commits; returns ErrAborted on conflicts.
func (t *Txn) Commit() error { return t.inner.Commit() }

// Abort abandons the transaction.
func (t *Txn) Abort() { t.inner.Abort() }

// Inner exposes the internal transaction for the fault harness.
func (t *Txn) Inner() *client.Txn { return t.inner }

// Meta returns the transaction's metadata snapshot (read set with observed
// versions, write set, participant shards). The verification harness uses
// it to rebuild committed histories.
func (t *Txn) Meta() *types.TxMeta { return t.inner.MetaSnapshot() }
