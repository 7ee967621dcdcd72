// Package benchharness drives the paper's evaluation (§6). Its one load
// driver (Run) runs closed- or open-arrival sessions, optionally beside
// Byzantine clients, over any system under test (Basil, TAPIR,
// TxHotstuff, TxBFT-SMaRt), and measures throughput and latency the way
// the paper does (latency from first invocation to commit, aborted
// transactions retried with exponential backoff). On top of it sits one
// experiment per figure/table, and internal/scenario's chaos matrix.
//
// Ownership: a run's session, dispatcher and Byzantine goroutines are
// all joined before Run returns.
package benchharness

import (
	"time"

	"repro/basil"
	"repro/internal/tapir"
	"repro/internal/txbase"
	"repro/internal/types"
	"repro/internal/workload"
)

// SysTx is one system-level transaction attempt.
type SysTx interface {
	workload.Tx
	Commit() error
	Abort()
}

// Session is one closed-loop client's connection.
type Session interface {
	Begin() SysTx
}

// System is a running deployment under test.
type System interface {
	Name() string
	Load(key string, value []byte)
	NewSession() Session
	Close()
}

// --- Basil adapter ---

// BasilSystem adapts basil.Cluster to the harness. It tracks the clients
// it hands out so aggregate protocol stats (fast-path share, recoveries)
// can be reported after a run.
type BasilSystem struct {
	C       *basil.Cluster
	Label   string
	clients []*basil.Client
}

// Name implements System.
func (s *BasilSystem) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "Basil"
}

// Load implements System.
func (s *BasilSystem) Load(key string, value []byte) { s.C.Load(key, value) }

// NewSession implements System.
func (s *BasilSystem) NewSession() Session {
	c := s.C.NewClient()
	s.clients = append(s.clients, c)
	return basilSession{c: c}
}

// Close implements System.
func (s *BasilSystem) Close() { s.C.Close() }

// FastPathShare returns the fraction of finished Prepare phases that took
// the single-round-trip fast path, summed over all sessions.
func (s *BasilSystem) FastPathShare() float64 {
	var fast, slow uint64
	for _, c := range s.clients {
		fast += c.Stats().FastPathTaken.Load()
		slow += c.Stats().SlowPathTaken.Load()
	}
	if fast+slow == 0 {
		return 0
	}
	return float64(fast) / float64(fast+slow)
}

// Recoveries sums dependency-recovery invocations across sessions.
func (s *BasilSystem) Recoveries() uint64 {
	var n uint64
	for _, c := range s.clients {
		n += c.Stats().Recoveries.Load()
	}
	return n
}

// Overloads sums the explicit Overloaded (load-shed) replies the
// sessions consumed — the scenario harness's admission accounting.
func (s *BasilSystem) Overloads() uint64 {
	var n uint64
	for _, c := range s.clients {
		n += c.Stats().Overloads.Load()
	}
	return n
}

type basilSession struct{ c *basil.Client }

func (s basilSession) Begin() SysTx { return basilTx{t: s.c.Begin()} }

type basilTx struct{ t *basil.Txn }

func (t basilTx) Read(k string) ([]byte, error) { return t.t.Read(k) }
func (t basilTx) Write(k string, v []byte)      { t.t.Write(k, v) }
func (t basilTx) Commit() error                 { return t.t.Commit() }
func (t basilTx) Abort()                        { t.t.Abort() }

// Meta exposes the transaction's metadata for serializability auditing;
// internal/scenario discovers it by interface assertion on SysTx.
func (t basilTx) Meta() *types.TxMeta { return t.t.Meta() }

// --- TAPIR adapter ---

// TapirSystem adapts tapir.Cluster.
type TapirSystem struct{ C *tapir.Cluster }

// Name implements System.
func (s *TapirSystem) Name() string { return "TAPIR" }

// Load implements System.
func (s *TapirSystem) Load(key string, value []byte) { s.C.Load(key, value) }

// NewSession implements System.
func (s *TapirSystem) NewSession() Session { return tapirSession{c: s.C.NewClient()} }

// Close implements System.
func (s *TapirSystem) Close() { s.C.Close() }

type tapirSession struct{ c *tapir.Client }

func (s tapirSession) Begin() SysTx { return tapirTx{t: s.c.Begin()} }

type tapirTx struct{ t *tapir.Txn }

func (t tapirTx) Read(k string) ([]byte, error) { return t.t.Read(k) }
func (t tapirTx) Write(k string, v []byte)      { t.t.Write(k, v) }
func (t tapirTx) Commit() error                 { return t.t.Commit() }
func (t tapirTx) Abort()                        { t.t.Abort() }

// --- ordered-log baseline adapter ---

// TxBaseSystem adapts txbase.Cluster (PBFT or HotStuff substrate).
type TxBaseSystem struct{ C *txbase.Cluster }

// Name implements System.
func (s *TxBaseSystem) Name() string { return s.C.Kind().String() }

// Load implements System.
func (s *TxBaseSystem) Load(key string, value []byte) { s.C.Load(key, value) }

// NewSession implements System.
func (s *TxBaseSystem) NewSession() Session { return txbaseSession{c: s.C.NewClient()} }

// Close implements System.
func (s *TxBaseSystem) Close() { s.C.Close() }

type txbaseSession struct{ c *txbase.Client }

func (s txbaseSession) Begin() SysTx { return txbaseTx{t: s.c.Begin()} }

type txbaseTx struct{ t *txbase.Txn }

func (t txbaseTx) Read(k string) ([]byte, error) { return t.t.Read(k) }
func (t txbaseTx) Write(k string, v []byte)      { t.t.Write(k, v) }
func (t txbaseTx) Commit() error                 { return t.t.Commit() }
func (t txbaseTx) Abort()                        { t.t.Abort() }

// Populate loads a generator's initial database into a system.
func Populate(sys System, gen workload.Generator) {
	gen.Populate(sys.Load)
	// Give replica-side load a moment to settle (loads are synchronous in
	// all current systems, but keep the barrier for future transports).
	time.Sleep(time.Millisecond)
}
