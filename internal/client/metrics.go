package client

import (
	"strconv"

	"repro/internal/metrics"
)

// initMetrics is the client's single metric definition site (basilvet
// BV006): every name the client registers lives here, next to the bound
// counters it mirrors. It also latches whether the registry is live so
// hot-path clock reads can be skipped entirely when instrumentation is
// off (BV005 — the metrics-tax rule).
func (c *Client) initMetrics(reg *metrics.Registry) {
	c.reg = reg
	c.timed = reg.Enabled()
	// Every instrument carries a client label so multiple clients can
	// share one registry (and one /metrics page) without name collisions.
	lbl := []string{"client", strconv.Itoa(int(c.cfg.ID))}
	reg.BindCounter("basil_client_tx_begun_total", &c.Stats.TxBegun, lbl...)
	reg.BindCounter("basil_client_tx_committed_total", &c.Stats.TxCommitted, lbl...)
	reg.BindCounter("basil_client_tx_aborted_total", &c.Stats.TxAborted, lbl...)
	reg.BindCounter("basil_client_fastpath_total", &c.Stats.FastPathTaken, lbl...)
	reg.BindCounter("basil_client_slowpath_total", &c.Stats.SlowPathTaken, lbl...)
	reg.BindCounter("basil_client_deps_acquired_total", &c.Stats.DepsAcquired, lbl...)
	reg.BindCounter("basil_client_recoveries_total", &c.Stats.Recoveries, lbl...)
	reg.BindCounter("basil_client_fallback_rounds_total", &c.Stats.FallbackRounds, lbl...)
	reg.BindCounter("basil_client_read_retries_total", &c.Stats.ReadRetries, lbl...)
	reg.BindCounter("basil_client_overloads_total", &c.Stats.Overloads, lbl...)
	reg.BindCounter("basil_client_cert_fetches_total", &c.Stats.CertFetches, lbl...)
	c.hRead = reg.Histogram("basil_client_read_latency_seconds", lbl...)
	c.hCommit = reg.Histogram("basil_client_commit_latency_seconds", lbl...)
	c.hTxn = reg.Histogram("basil_client_txn_latency_seconds", lbl...)
}
