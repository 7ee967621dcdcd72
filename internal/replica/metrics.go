package replica

import (
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
)

// Observability wiring. Every replica owns a metrics.Registry (its
// process-visible namespace; basil-server serves it at -admin-addr). The
// pre-existing Stats atomics stay the counters of record — the registry
// binds them rather than duplicating them, so the hot paths still pay a
// single atomic add. The only instrumentation added to the ingest hot
// path is the per-kind Deliver latency pair of clock reads, gated on
// mx.timed so a Nop registry is a true uninstrumented baseline (the
// overhead is bounded by `basil-bench -experiment metrics`).

// deliver-latency histogram indices, one per protocol message kind.
const (
	kindRead = iota
	kindAbortRead
	kindST1
	kindST2
	kindWriteback
	kindInvokeFB
	kindElectFB
	kindDecFB
	kindCert
	kindCount
)

var kindNames = [kindCount]string{
	"read", "abort_read", "st1", "st2", "writeback",
	"invoke_fb", "elect_fb", "dec_fb", "cert",
}

// replicaMetrics holds the replica's live instrument handles. All fields
// are nil (no-op handles) when the registry is Nop.
type replicaMetrics struct {
	timed      bool // registry is live: pay the clock reads in dispatch
	deliver    [kindCount]*metrics.Histogram
	checkpoint *metrics.Histogram
	ckpts      *metrics.Counter
}

// initMetrics builds the replica's registry-backed instrumentation:
// bound protocol counters, per-kind deliver latency histograms, store
// counters and occupancy gauges, and (when durable) WAL latency
// histograms bound later by Restore via walHistograms. Called once from
// Restore before the replica is registered on the network.
func (r *Replica) initMetrics(reg *metrics.Registry) {
	r.reg = reg
	r.mx.timed = reg.Enabled()

	// Protocol counters: bind the existing Stats atomics so tests and
	// metrics read the same memory.
	reg.BindCounter("basil_replica_reads_total", &r.Stats.Reads)
	reg.BindCounter("basil_replica_st1_total", &r.Stats.ST1s)
	reg.BindCounter("basil_replica_votes_total", &r.Stats.VotesCommit, "vote", "commit")
	reg.BindCounter("basil_replica_votes_total", &r.Stats.VotesAbort, "vote", "abort")
	reg.BindCounter("basil_replica_misbehavior_total", &r.Stats.Misbehavior)
	reg.BindCounter("basil_replica_dep_waits_total", &r.Stats.DepWaits)
	reg.BindCounter("basil_replica_st2_total", &r.Stats.ST2s)
	reg.BindCounter("basil_replica_writebacks_total", &r.Stats.Writebacks)
	reg.BindCounter("basil_replica_fallback_invokes_total", &r.Stats.FallbackInvoke)
	reg.BindCounter("basil_replica_elections_total", &r.Stats.Elections)
	reg.BindCounter("basil_replica_decfb_total", &r.Stats.DecFBs)
	reg.BindCounter("basil_replica_sigs_signed_total", &r.Stats.SigsSigned)
	reg.BindCounter("basil_replica_sigs_verified_total", &r.Stats.SigsVerified)

	// Transaction-state lifecycle (lifecycle.go): held states, watermark
	// collections, waiter-cap evictions, and stale below-watermark drops.
	// txstates held vs basil_store_txns is the retention signal operators
	// alert on (docs/operations.md).
	reg.BindGaugeFunc("basil_replica_txstates", func() int64 { return int64(r.TxStateCount()) })
	reg.BindCounter("basil_replica_txstates_collected_total", &r.Stats.TxCollected)
	reg.BindCounter("basil_replica_waiters_evicted_total", &r.Stats.WaiterEvictions)
	reg.BindCounter("basil_replica_stale_drops_total", &r.Stats.StaleDrops)

	// Admission queue (admission.go): occupancy against its cap, and how
	// much arriving work is being shed — the overload alerting pair
	// (docs/operations.md). The capacity gauge is 0 when admission is
	// disabled (DispatchQueue < 0).
	reg.BindGaugeFunc("basil_replica_dispatch_depth", func() int64 { return r.adm.depth() })
	reg.BindGaugeFunc("basil_replica_dispatch_capacity", func() int64 {
		if r.adm.cap > 0 {
			return r.adm.cap
		}
		return 0
	})
	reg.BindCounter("basil_replica_shed_total", &r.Stats.Shed)
	reg.BindCounter("basil_replica_shed_reputation_total", &r.Stats.ShedReputation)

	// Deliver latency by message kind (handler run time on the pool).
	for k := 0; k < kindCount; k++ {
		r.mx.deliver[k] = reg.Histogram("basil_replica_deliver_latency_seconds", "kind", kindNames[k])
	}

	// Durability state: 1 when the replica muted itself after a WAL
	// append failure (fail-stop; see durability.go), mirrored by /healthz.
	reg.BindGaugeFunc("basil_replica_muted", func() int64 {
		if r.walFailed.Load() {
			return 1
		}
		return 0
	})

	// Checkpoint activity.
	r.mx.ckpts = reg.Counter("basil_replica_checkpoints_total")
	r.mx.checkpoint = reg.Histogram("basil_replica_checkpoint_seconds")

	// Store: MVTSO-check outcomes and occupancy. The gauges share one
	// cached walk so a scrape costs a single StatsSnapshot.
	r.store.SetMetrics(store.RegistryMetrics(reg))
	if reg.Enabled() {
		cache := &cachedStoreStats{src: r.store}
		reg.BindGaugeFunc("basil_store_keys", func() int64 { return int64(cache.get().Keys) })
		reg.BindGaugeFunc("basil_store_versions", func() int64 { return int64(cache.get().Versions) })
		reg.BindGaugeFunc("basil_store_txns", func() int64 { return int64(cache.get().Txns) })
		reg.BindGaugeFunc("basil_store_prepared", func() int64 { return int64(cache.get().Prepared) })
	}
}

// walMetrics builds the instrument handles wal.Open consumes, keeping the
// WAL's metric names in this file — the package's single definition site.
func walMetrics(reg *metrics.Registry) (appendLat, syncLat *metrics.Histogram, pruneFails *metrics.Counter) {
	return reg.Histogram("basil_wal_append_latency_seconds"),
		reg.Histogram("basil_wal_fsync_latency_seconds"),
		reg.Counter("basil_wal_prune_failures_total")
}

// bindWALMetrics exposes the WAL's cumulative counters once the log is
// open (called from Restore for durable replicas only).
func (r *Replica) bindWALMetrics() {
	r.reg.BindCounterFunc("basil_wal_appends_total", func() uint64 { return r.WALStats().Appends })
	r.reg.BindCounterFunc("basil_wal_fsyncs_total", func() uint64 { return r.WALStats().Syncs })
}

// Metrics returns the replica's registry (serve it with
// metrics.AdminHandler, or snapshot it in tests and experiments).
func (r *Replica) Metrics() *metrics.Registry { return r.reg }

// Health reports whether this replica still serves protocol traffic —
// the /healthz answer. A replica whose WAL append failed is "muted":
// alive but deliberately silent (fail-stop, never fail-equivocate).
func (r *Replica) Health() metrics.Health {
	switch {
	case r.walFailed.Load():
		return metrics.Health{OK: false, State: "muted",
			Detail: "wal append failed; replica is fail-stopped to avoid equivocation — restart it from its data dir"}
	case r.closed.Load():
		return metrics.Health{OK: false, State: "closed"}
	default:
		return metrics.Health{OK: true, State: "serving"}
	}
}

// cachedStoreStats throttles StatsSnapshot (a walk of every key, one
// stripe at a time, and of the transaction table) so the bound occupancy
// gauges scraped together cost one walk per second, not one per gauge per
// scrape.
type cachedStoreStats struct {
	src *store.Store

	mu sync.Mutex
	at time.Time
	st store.Stats
}

func (c *cachedStoreStats) get() store.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.at.IsZero() || time.Since(c.at) > time.Second {
		c.st = c.src.StatsSnapshot()
		c.at = time.Now()
	}
	return c.st
}
