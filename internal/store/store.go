// Package store implements the multiversioned storage a Basil replica
// keeps per shard: committed version chains, prepared (visible but
// uncommitted) writes, reader records, and read timestamps (RTS), plus the
// serializability portion of the MVTSO-Check (Algorithm 1 steps 3–6).
//
// Concurrency model. The store is sharded into a fixed array of lock
// stripes hashed by key, so prepares and reads on disjoint keys run truly
// in parallel. Three lock levels exist, always acquired in this order:
//
//  1. global (RWMutex) — held shared by every per-key operation (Read,
//     DropRTS, CheckAndPrepare, ApplyGenesis, LatestCommitted, Tx lookups)
//     and exclusively by the cross-key operations that mutate transaction
//     records or walk every key (Finalize, RemovePrepared, GC,
//     StatsSnapshot). Holding it exclusively implies exclusive access to
//     all stripes and the transaction table.
//  2. stripe mutexes — per-key state (version chains, readers, RTS).
//     Multi-key operations (CheckAndPrepare) lock all involved stripes in
//     ascending index order, making the check-and-install atomic without a
//     store-wide critical section.
//  3. txMu — the transaction table. Only the map itself needs it: fields
//     of a published TxRecord are mutated solely under the exclusive
//     global lock, so shared-lock holders may read them freely after the
//     map lookup.
//
// All locks are leaf-level with respect to the replica layer: no store
// method calls back out while holding any of them.
package store

import (
	"hash/maphash"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/types"
)

// DefaultStripes is the stripe count used by New. It comfortably exceeds
// any plausible GOMAXPROCS so disjoint-key workloads rarely collide, while
// keeping the fixed per-store footprint trivial.
const DefaultStripes = 64

// TxStatus tracks a transaction's lifecycle at this replica.
type TxStatus uint8

// Transaction statuses.
const (
	StatusUnknown TxStatus = iota
	StatusPrepared
	StatusCommitted
	StatusAborted
)

// TxRecord is the replica's bookkeeping for one transaction.
type TxRecord struct {
	Meta   *types.TxMeta
	Status TxStatus
	Cert   *types.DecisionCert // set once finalized with a certificate

	// id is the transaction's key in the table; version chains and
	// reader lists point at the record instead of repeating it.
	id types.TxID
}

// recID returns rec's transaction id, or the zero id for nil (the
// writer of a genesis version).
func recID(rec *TxRecord) types.TxID {
	if rec == nil {
		return types.TxID{}
	}
	return rec.id
}

// writeRec is one (possibly uncommitted) version of a key. writer is the
// writing transaction's record, nil for genesis versions.
type writeRec struct {
	ver       types.Timestamp
	value     []byte
	writer    *TxRecord
	committed bool
}

// readRec records a read performed by a prepared or committed transaction;
// needed for Algorithm 1 line 10 (writes must not invalidate the reads of
// already-validated transactions).
type readRec struct {
	readerTs types.Timestamp
	readVer  types.Timestamp
	reader   *TxRecord
}

// rtsEntry is one outstanding read timestamp and its reference count.
type rtsEntry struct {
	ts   types.Timestamp
	refs int
}

type keyEntry struct {
	// writes sorted ascending by version timestamp.
	writes []writeRec
	// readers of this key from prepared/committed transactions.
	readers []readRec
	// rts holds the read timestamps of ongoing (not yet prepared)
	// transactions, reference-counted because retries may re-read. It is
	// nil when no read is outstanding and rarely holds more than two
	// entries, so adds and drops scan it.
	rts    []rtsEntry
	maxRTS types.Timestamp
}

// stripe is one lock-striped slice of the key space.
type stripe struct {
	mu   sync.Mutex
	keys map[string]*keyEntry
}

// Store is one shard's multiversioned state at one replica.
type Store struct {
	// global is the cross-stripe fence: per-key operations hold it for
	// read, whole-store sweeps (GC, snapshot) hold it for write. Ordered
	// before any stripe lock.
	global  sync.RWMutex
	stripes []stripe
	seed    maphash.Seed

	// txMu is an RWMutex because the table is read-mostly and shared by
	// every stripe: duplicate checks and record queries look ids up here,
	// and a plain mutex would re-serialize the striped paths. Version
	// chains and reader lists hold record pointers, so scanning them
	// needs no table lookup.
	txMu sync.RWMutex
	txns map[types.TxID]*TxRecord

	// rtsFloor is a conservative store-wide lower bound standing in for
	// RTS entries lost in a crash: writers below it are aborted by the
	// line-12 coarse filter even on keys with no live RTS. Set once by
	// restart (SetRTSFloor), read under the shared global lock.
	rtsFloor types.Timestamp

	// m holds optional instrumentation hooks. All fields are nil-safe
	// no-ops until SetMetrics installs live counters, so the hot paths
	// pay one nil check when observability is off.
	m Metrics
}

// Metrics are the store's instrumentation hooks (see internal/metrics):
// CheckAndPrepare outcomes, the RTS-rejection subset of aborts (Algorithm
// 1 line 12 — a writer refused because a higher-timestamped read is
// outstanding), and GC activity. Install with SetMetrics before serving.
type Metrics struct {
	Prepares      *metrics.Counter // CheckAndPrepare calls (any outcome)
	PrepareOKs    *metrics.Counter // outcomes that installed the prepare
	RTSRejections *metrics.Counter // aborts from outstanding RTS / floor
	GCRuns        *metrics.Counter // GC invocations
	GCCollected   *metrics.Counter // entries GC dropped, cumulative
}

// SetMetrics installs instrumentation counters. Call once, before the
// store serves traffic (the fields are read without synchronization).
func (s *Store) SetMetrics(m Metrics) { s.m = m }

// RegistryMetrics builds the canonical Metrics set on reg — the single
// definition of what a live replica installs, shared by the replica
// wiring and by the overhead benchmarks so the measured "observability
// tax" cannot silently diverge from real instrumentation. Label pairs
// apply to every counter.
func RegistryMetrics(reg *metrics.Registry, labelPairs ...string) Metrics {
	return Metrics{
		Prepares:      reg.Counter("basil_store_prepares_total", labelPairs...),
		PrepareOKs:    reg.Counter("basil_store_prepare_ok_total", labelPairs...),
		RTSRejections: reg.Counter("basil_store_rts_rejections_total", labelPairs...),
		GCRuns:        reg.Counter("basil_store_gc_runs_total", labelPairs...),
		GCCollected:   reg.Counter("basil_store_gc_collected_total", labelPairs...),
	}
}

// New creates an empty store with DefaultStripes lock stripes.
func New() *Store { return NewStriped(DefaultStripes) }

// NewStriped creates an empty store with n lock stripes (rounded up to a
// power of two; n < 1 means 1, which degenerates to a single key lock —
// the pre-striping baseline the parallel benchmarks compare against).
func NewStriped(n int) *Store {
	if n < 1 {
		n = 1
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	s := &Store{
		stripes: make([]stripe, pow),
		seed:    maphash.MakeSeed(),
		txns:    make(map[types.TxID]*TxRecord),
	}
	for i := range s.stripes {
		s.stripes[i].keys = make(map[string]*keyEntry)
	}
	return s
}

// Stripes returns the stripe count (observability for tests/experiments).
func (s *Store) Stripes() int { return len(s.stripes) }

// stripeIdx hashes k onto a stripe index.
func (s *Store) stripeIdx(k string) int {
	return int(maphash.String(s.seed, k) & uint64(len(s.stripes)-1))
}

func (s *Store) stripeOf(k string) *stripe { return &s.stripes[s.stripeIdx(k)] }

// entry returns (creating if needed) k's entry. Caller holds st's mutex.
func (st *stripe) entry(k string) *keyEntry {
	e := st.keys[k]
	if e == nil {
		e = &keyEntry{}
		st.keys[k] = e
	}
	return e
}

// lockStripes locks the stripes covering every key in meta's read and
// write sets, in ascending index order (the deadlock-free total order),
// and returns the locked indices for unlockStripes.
func (s *Store) lockStripes(meta *types.TxMeta) []int {
	idxs := make([]int, 0, len(meta.ReadSet)+len(meta.WriteSet))
	for _, r := range meta.ReadSet {
		idxs = append(idxs, s.stripeIdx(r.Key))
	}
	for _, w := range meta.WriteSet {
		idxs = append(idxs, s.stripeIdx(w.Key))
	}
	sort.Ints(idxs)
	out := idxs[:0]
	last := -1
	for _, i := range idxs {
		if i != last {
			out = append(out, i)
			last = i
		}
	}
	for _, i := range out {
		s.stripes[i].mu.Lock()
	}
	return out
}

func (s *Store) unlockStripes(idxs []int) {
	for _, i := range idxs {
		s.stripes[i].mu.Unlock()
	}
}

// txLookup returns the record for id under the shared table lock.
func (s *Store) txLookup(id types.TxID) *TxRecord {
	s.txMu.RLock()
	rec := s.txns[id]
	s.txMu.RUnlock()
	return rec
}

// ApplyGenesis installs the load-time value of key at the zero timestamp.
// Genesis versions carry no certificate and are trusted by all nodes.
func (s *Store) ApplyGenesis(k string, value []byte) {
	s.global.RLock()
	defer s.global.RUnlock()
	st := s.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.entry(k)
	rec := writeRec{value: value, committed: true}
	if len(e.writes) > 0 && e.writes[0].ver.IsZero() {
		e.writes[0] = rec
		return
	}
	e.writes = append([]writeRec{rec}, e.writes...)
}

// insertWrite places w into e.writes keeping version order.
func (e *keyEntry) insertWrite(w writeRec) {
	i := len(e.writes)
	for i > 0 && w.ver.Less(e.writes[i-1].ver) {
		i--
	}
	e.writes = append(e.writes, writeRec{})
	copy(e.writes[i+1:], e.writes[i:])
	e.writes[i] = w
}

// removeWritesBy drops all writes by tx from e.
func (e *keyEntry) removeWritesBy(tx *TxRecord) {
	out := e.writes[:0]
	for _, w := range e.writes {
		if w.writer != tx {
			out = append(out, w)
		}
	}
	e.writes = out
}

// removeReadersBy drops all reader records by tx from e.
func (e *keyEntry) removeReadersBy(tx *TxRecord) {
	out := e.readers[:0]
	for _, r := range e.readers {
		if r.reader != tx {
			out = append(out, r)
		}
	}
	e.readers = out
}

// ReadResult carries the replica's two read branches (paper §4.1 step 2).
type ReadResult struct {
	Committed *types.CommittedRead
	Prepared  *types.PreparedRead
}

// Read returns the latest committed and latest prepared versions of key
// with timestamps strictly below ts, and records ts in the key's RTS set.
func (s *Store) Read(k string, ts types.Timestamp) ReadResult {
	s.global.RLock()
	defer s.global.RUnlock()
	st := s.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.entry(k)
	e.addRTS(ts)
	var res ReadResult
	for i := len(e.writes) - 1; i >= 0; i-- {
		w := e.writes[i]
		if !w.ver.Less(ts) {
			continue
		}
		if w.committed {
			if res.Committed == nil {
				rec := w.writer
				cr := &types.CommittedRead{Value: w.value}
				if rec != nil {
					cr.WriterMeta = rec.Meta
					cr.Cert = rec.Cert
				}
				res.Committed = cr
			}
			// Prepared versions older than the newest committed one are
			// irrelevant: the committed branch dominates them.
			break
		}
		if res.Prepared == nil {
			if rec := w.writer; rec != nil && rec.Status == StatusPrepared {
				res.Prepared = &types.PreparedRead{Value: w.value, WriterMeta: rec.Meta}
			}
		}
	}
	return res
}

// DropRTS releases one reference of ts from each key (client Abort during
// execution, paper §4.1).
func (s *Store) DropRTS(keys []string, ts types.Timestamp) {
	s.global.RLock()
	defer s.global.RUnlock()
	for _, k := range keys {
		st := s.stripeOf(k)
		st.mu.Lock()
		if e := st.keys[k]; e != nil {
			e.dropRTS(ts)
		}
		st.mu.Unlock()
	}
}

// addRTS takes one reference of ts in e's RTS set.
func (e *keyEntry) addRTS(ts types.Timestamp) {
	if e.maxRTS.Less(ts) {
		e.maxRTS = ts
	}
	for i := range e.rts {
		if e.rts[i].ts == ts {
			e.rts[i].refs++
			return
		}
	}
	e.rts = append(e.rts, rtsEntry{ts: ts, refs: 1})
}

// dropRTS releases one reference of ts from e, recomputing maxRTS if the
// released reference was the last of the maximum.
func (e *keyEntry) dropRTS(ts types.Timestamp) {
	for i := range e.rts {
		if e.rts[i].ts != ts {
			continue
		}
		if e.rts[i].refs > 1 {
			e.rts[i].refs--
			return
		}
		last := len(e.rts) - 1
		e.rts[i] = e.rts[last]
		e.rts = e.rts[:last]
		if last == 0 {
			e.rts = nil
		}
		if ts == e.maxRTS {
			e.recomputeMaxRTS()
		}
		return
	}
}

// recomputeMaxRTS resets maxRTS to the largest outstanding read
// timestamp, zero when none is outstanding.
func (e *keyEntry) recomputeMaxRTS() {
	e.maxRTS = types.Timestamp{}
	for _, r := range e.rts {
		if e.maxRTS.Less(r.ts) {
			e.maxRTS = r.ts
		}
	}
}

// CheckOutcome is the store-level verdict of the MVTSO check.
type CheckOutcome uint8

// Check outcomes.
const (
	// CheckOK: the transaction passed lines 5–13 and was added to the
	// prepared set (line 14). The replica still waits on dependencies.
	CheckOK CheckOutcome = iota
	// CheckAbort: a serializability conflict (lines 7–13).
	CheckAbort
	// CheckMisbehavior: the read set claims a version from the future
	// (line 6) — proof of client misbehavior.
	CheckMisbehavior
	// CheckDuplicate: the transaction was already prepared/finalized here.
	CheckDuplicate
)

// CheckResult reports the outcome plus conflict evidence: when aborting
// because of a committed transaction, its certificate (the "optional
// (T', T'.C-CERT)" of Algorithm 1 lines 8 and 11); when aborting because
// of a prepared-but-undecided transaction, that transaction's metadata so
// the client can finish it via the fallback (the §5 invariant: whoever is
// aborted by T can complete T).
type CheckResult struct {
	Outcome      CheckOutcome
	Conflict     *types.DecisionCert
	ConflictMeta *types.TxMeta
	// PreparedConflict is the metadata of the undecided transaction that
	// caused the abort, if any.
	PreparedConflict *types.TxMeta
}

// CheckAndPrepare runs Algorithm 1 lines 5–14 atomically: validates the
// read set against newer writes, the write set against validated readers
// and outstanding RTS, and on success makes the transaction's writes
// visible as prepared versions. Atomicity comes from holding every
// involved key's stripe for the whole check-and-install; transactions on
// disjoint stripes proceed in parallel.
func (s *Store) CheckAndPrepare(meta *types.TxMeta, id types.TxID) CheckResult {
	s.m.Prepares.Add(1)
	s.global.RLock()
	defer s.global.RUnlock()
	if s.txLookup(id) != nil {
		return CheckResult{Outcome: CheckDuplicate}
	}
	locked := s.lockStripes(meta)
	defer s.unlockStripes(locked)
	ts := meta.Timestamp
	// Lines 5–8: reads must not have missed a write.
	for _, r := range meta.ReadSet {
		if ts.Less(r.Version) || ts == r.Version {
			return CheckResult{Outcome: CheckMisbehavior}
		}
		e := s.stripeOf(r.Key).keys[r.Key]
		if e == nil {
			continue
		}
		// Note: the read version need not exist locally — the client may
		// have read from other replicas (prepared-version deps are
		// separately validated by the replica layer). Line 7 only demands
		// that no newer-but-older-than-ts write exists here.
		for _, w := range e.writes {
			if r.Version.Less(w.ver) && w.ver.Less(ts) {
				res := CheckResult{Outcome: CheckAbort}
				if rec := w.writer; rec != nil {
					if w.committed && rec.Cert != nil {
						res.Conflict = rec.Cert
						res.ConflictMeta = rec.Meta
					} else if rec.Status == StatusPrepared {
						res.PreparedConflict = rec.Meta
					}
				}
				return res
			}
		}
	}
	// Lines 9–13: writes must not invalidate validated readers or
	// outstanding reads. The restart floor stands in for RTS entries a
	// crash erased: any read the pre-crash replica admitted had a
	// timestamp at or below the floor, so writers beneath it are refused
	// exactly as the lost per-key entries would have refused them.
	if len(meta.WriteSet) > 0 && ts.Less(s.rtsFloor) {
		s.m.RTSRejections.Add(1)
		return CheckResult{Outcome: CheckAbort}
	}
	for _, w := range meta.WriteSet {
		e := s.stripeOf(w.Key).keys[w.Key]
		if e == nil {
			continue
		}
		for _, rd := range e.readers {
			if rd.readVer.Less(ts) && ts.Less(rd.readerTs) {
				res := CheckResult{Outcome: CheckAbort}
				if rec := rd.reader; rec != nil {
					if rec.Status == StatusCommitted && rec.Cert != nil {
						res.Conflict = rec.Cert
						res.ConflictMeta = rec.Meta
					} else if rec.Status == StatusPrepared {
						res.PreparedConflict = rec.Meta
					}
				}
				return res
			}
		}
		if ts.Less(e.maxRTS) {
			// Line 12: an ongoing read with a higher timestamp exists.
			s.m.RTSRejections.Add(1)
			return CheckResult{Outcome: CheckAbort}
		}
	}
	// Line 14: prepare and make writes visible. The record is fully built
	// before publication; the publish re-checks for a duplicate so two
	// concurrent deliveries of a keyless transaction (no stripe to
	// serialize on) cannot both install.
	rec := &TxRecord{Meta: meta, Status: StatusPrepared, id: id}
	s.txMu.Lock()
	if s.txns[id] != nil {
		s.txMu.Unlock()
		return CheckResult{Outcome: CheckDuplicate}
	}
	s.txns[id] = rec
	s.txMu.Unlock()
	for _, w := range meta.WriteSet {
		s.stripeOf(w.Key).entry(w.Key).insertWrite(writeRec{ver: ts, value: w.Value, writer: rec})
	}
	for _, r := range meta.ReadSet {
		e := s.stripeOf(r.Key).entry(r.Key)
		e.readers = append(e.readers, readRec{readerTs: ts, readVer: r.Version, reader: rec})
		// The transaction has been validated; its execution-time RTS
		// reservation is superseded by the reader record. dropRTS also
		// recomputes maxRTS when the last reference at ts is released, so
		// the coarse line-12 filter tracks live reads instead of the
		// highest-ever read timestamp (which would spuriously abort every
		// lower-timestamped writer on a hot key forever).
		e.dropRTS(ts)
	}
	s.m.PrepareOKs.Add(1)
	return CheckResult{Outcome: CheckOK}
}

// Finalize applies a commit or abort decision. For commits the prepared
// writes become committed versions (installing meta's writes even if the
// transaction was never prepared here, e.g. a writeback received by a
// replica that missed ST1). It returns true if the status changed.
//
// Finalize is a cross-key operation and takes the global lock exclusively:
// it is the only mutator of published TxRecord fields, which lets every
// shared-lock holder read records without per-record locking.
func (s *Store) Finalize(id types.TxID, meta *types.TxMeta, dec types.Decision, cert *types.DecisionCert) bool {
	s.global.Lock()
	defer s.global.Unlock()
	rec := s.txns[id]
	if rec == nil {
		rec = &TxRecord{Meta: meta, id: id}
		s.txns[id] = rec
	}
	if rec.Meta == nil {
		rec.Meta = meta
	}
	switch rec.Status {
	case StatusCommitted, StatusAborted:
		if cert != nil && rec.Cert == nil {
			rec.Cert = cert
		}
		return false
	}
	if cert != nil {
		rec.Cert = cert
	}
	if dec == types.DecisionCommit {
		rec.Status = StatusCommitted
		wasPrepared := false
		if rec.Meta != nil {
			for _, w := range rec.Meta.WriteSet {
				e := s.stripeOf(w.Key).entry(w.Key)
				found := false
				for i := range e.writes {
					if e.writes[i].writer == rec {
						e.writes[i].committed = true
						found = true
					}
				}
				if !found {
					e.insertWrite(writeRec{ver: rec.Meta.Timestamp, value: w.Value, writer: rec, committed: true})
				} else {
					wasPrepared = true
				}
			}
			if !wasPrepared {
				// Install reader records too so future conflicting writes
				// are caught (line 10) even on replicas that skipped ST1.
				for _, r := range rec.Meta.ReadSet {
					e := s.stripeOf(r.Key).entry(r.Key)
					e.readers = append(e.readers, readRec{readerTs: rec.Meta.Timestamp, readVer: r.Version, reader: rec})
				}
			}
		}
	} else {
		rec.Status = StatusAborted
		if rec.Meta != nil {
			for _, w := range rec.Meta.WriteSet {
				if e := s.stripeOf(w.Key).keys[w.Key]; e != nil {
					e.removeWritesBy(rec)
				}
			}
			for _, r := range rec.Meta.ReadSet {
				if e := s.stripeOf(r.Key).keys[r.Key]; e != nil {
					e.removeReadersBy(rec)
				}
			}
		}
	}
	return true
}

// RemovePrepared withdraws a prepared transaction entirely (Algorithm 1
// line 17: a replica that votes abort after dependency resolution removes
// the transaction from the prepared set). No-op unless id is prepared.
func (s *Store) RemovePrepared(id types.TxID) {
	s.global.Lock()
	defer s.global.Unlock()
	rec := s.txns[id]
	if rec == nil || rec.Status != StatusPrepared {
		return
	}
	if rec.Meta != nil {
		for _, w := range rec.Meta.WriteSet {
			if e := s.stripeOf(w.Key).keys[w.Key]; e != nil {
				e.removeWritesBy(rec)
			}
		}
		for _, r := range rec.Meta.ReadSet {
			if e := s.stripeOf(r.Key).keys[r.Key]; e != nil {
				e.removeReadersBy(rec)
			}
		}
	}
	delete(s.txns, id)
}

// Tx returns a snapshot of the record for id. The second result reports
// whether the transaction is known. A copy (not the live pointer) is
// returned because record fields are mutated under the store's exclusive
// lock, which callers do not hold.
func (s *Store) Tx(id types.TxID) (TxRecord, bool) {
	s.global.RLock()
	defer s.global.RUnlock()
	if rec := s.txLookup(id); rec != nil {
		return *rec, true
	}
	return TxRecord{}, false
}

// FinalizedOutcome returns a snapshot of the record for id only when its
// outcome is already decided (committed or aborted). This is the replica's
// resurrection-guard query: a late duplicate ST1/ST2/writeback for a
// transaction whose protocol state was collected at the checkpoint
// watermark is answered from this table instead of recreating votable
// protocol state. The second result is false for unknown or still-prepared
// transactions, which must take the normal protocol path.
func (s *Store) FinalizedOutcome(id types.TxID) (TxRecord, bool) {
	s.global.RLock()
	defer s.global.RUnlock()
	rec := s.txLookup(id)
	if rec == nil || (rec.Status != StatusCommitted && rec.Status != StatusAborted) {
		return TxRecord{}, false
	}
	return *rec, true
}

// PreparedIDs returns the ids of every currently prepared transaction
// (restart path: prepared entries without a durably logged vote are
// withdrawn, since the vote they would justify was never promised).
func (s *Store) PreparedIDs() []types.TxID {
	s.global.RLock()
	defer s.global.RUnlock()
	s.txMu.RLock()
	defer s.txMu.RUnlock()
	var ids []types.TxID
	for id, rec := range s.txns {
		if rec.Status == StatusPrepared {
			ids = append(ids, id)
		}
	}
	return ids
}

// TxStatusOf returns the lifecycle status of id.
func (s *Store) TxStatusOf(id types.TxID) TxStatus {
	s.global.RLock()
	defer s.global.RUnlock()
	if rec := s.txLookup(id); rec != nil {
		return rec.Status
	}
	return StatusUnknown
}

// LatestCommitted returns the newest committed version of key, for
// debugging and example tooling.
func (s *Store) LatestCommitted(k string) (types.Timestamp, []byte, bool) {
	s.global.RLock()
	defer s.global.RUnlock()
	st := s.stripeOf(k)
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.keys[k]
	if e == nil {
		return types.Timestamp{}, nil, false
	}
	for i := len(e.writes) - 1; i >= 0; i-- {
		if e.writes[i].committed {
			return e.writes[i].ver, e.writes[i].value, true
		}
	}
	return types.Timestamp{}, nil, false
}

// SetRTSFloor installs the conservative restart lower bound for ongoing
// reads (see Store.rtsFloor). Called once by the replica restart path; it
// never lowers an existing floor.
func (s *Store) SetRTSFloor(ts types.Timestamp) {
	s.global.Lock()
	if s.rtsFloor.Less(ts) {
		s.rtsFloor = ts
	}
	s.global.Unlock()
}

// GC discards state strictly older than the watermark: committed versions
// (keeping at least the newest committed version at or below the
// watermark per key, so reads above it still have a version to serve),
// reader records, RTS entries, and finalized transaction records whose
// writes no longer survive anywhere. Prepared writes are never collected.
// Returns the number of records dropped.
//
// Watermark semantics: the caller promises no transaction at or below the
// watermark will ever be read, prepared, or recovered again — in a live
// cluster that means it trails the oldest timestamp any in-flight
// transaction could still use (clients pick now, admission caps at
// now+δ, so "now − δ − max transaction lifetime" is safely below every
// live timestamp). Everything the store knows below that line is
// unreachable history except the newest committed version per key, which
// later reads still resolve to.
func (s *Store) GC(watermark types.Timestamp) int {
	s.m.GCRuns.Add(1)
	s.global.Lock()
	defer s.global.Unlock()
	dropped := 0
	// Writers of surviving versions stay in the transaction table: Read
	// serves their metadata and certificate alongside the value, and a
	// missing record would make a real committed version indistinguishable
	// from an unprovable one.
	liveWriters := make(map[*TxRecord]struct{})
	for si := range s.stripes {
		for _, e := range s.stripes[si].keys {
			// Find the newest committed version ≤ watermark; keep it.
			keepIdx := -1
			for i := len(e.writes) - 1; i >= 0; i-- {
				if e.writes[i].committed && !watermark.Less(e.writes[i].ver) {
					keepIdx = i
					break
				}
			}
			if keepIdx > 0 {
				out := e.writes[:0]
				for i, w := range e.writes {
					if i < keepIdx && w.committed && w.ver.Less(e.writes[keepIdx].ver) {
						dropped++
						continue
					}
					out = append(out, w)
				}
				e.writes = out
			}
			for i := range e.writes {
				if w := e.writes[i].writer; w != nil {
					liveWriters[w] = struct{}{}
				}
			}
			rd := e.readers[:0]
			for _, r := range e.readers {
				if r.readerTs.Less(watermark) {
					dropped++
					continue
				}
				rd = append(rd, r)
			}
			e.readers = rd
			live := e.rts[:0]
			for _, r := range e.rts {
				if r.ts.Less(watermark) {
					dropped++
					continue
				}
				live = append(live, r)
			}
			if len(live) != len(e.rts) {
				if len(live) == 0 {
					live = nil
				}
				e.rts = live
				// Recompute the coarse line-12 bound from the surviving
				// entries; leaving the old maximum in place would keep
				// aborting every writer below a read timestamp that no
				// longer exists (same stale-maxRTS class dropRTS fixes).
				e.recomputeMaxRTS()
			}
		}
	}
	// Collect the finalized-transaction table: under sustained load it is
	// the store's only unbounded structure. A finalized record below the
	// watermark whose writes have all been superseded (or that aborted) is
	// pure history — no read, conflict check, or recovery can name it
	// again under the watermark promise above.
	for id, rec := range s.txns {
		if rec.Status != StatusCommitted && rec.Status != StatusAborted {
			continue
		}
		if rec.Meta == nil || !rec.Meta.Timestamp.Less(watermark) {
			continue
		}
		if _, live := liveWriters[rec]; live {
			continue
		}
		delete(s.txns, id)
		dropped++
	}
	s.m.GCCollected.Add(uint64(dropped))
	return dropped
}

// Stats reports store sizes for monitoring.
type Stats struct {
	Keys      int
	Versions  int
	Readers   int
	RTS       int
	Txns      int
	Prepared  int
	Committed int
	Aborted   int
}

// StatsSnapshot returns current sizes.
func (s *Store) StatsSnapshot() Stats {
	s.global.Lock()
	defer s.global.Unlock()
	var st Stats
	for si := range s.stripes {
		st.Keys += len(s.stripes[si].keys)
		for _, e := range s.stripes[si].keys {
			st.Versions += len(e.writes)
			st.Readers += len(e.readers)
			st.RTS += len(e.rts)
		}
	}
	st.Txns = len(s.txns)
	for _, r := range s.txns {
		switch r.Status {
		case StatusPrepared:
			st.Prepared++
		case StatusCommitted:
			st.Committed++
		case StatusAborted:
			st.Aborted++
		}
	}
	return st
}
