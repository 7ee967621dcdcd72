package client

import (
	"sort"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
)

// Txn is one interactive transaction (paper §4.1). Reads go to replicas;
// writes buffer locally until Commit. A Txn is single-goroutine.
type Txn struct {
	c  *Client
	ts types.Timestamp
	// begun anchors the end-to-end latency histogram (Begin -> commit).
	begun time.Time

	reads    []types.ReadEntry
	readKeys map[string]bool
	// readVals caches the value chosen for each read key so repeat reads
	// return exactly the bytes whose version is in the read set — never a
	// newer version committed between the two reads.
	readVals   map[string][]byte
	writes     map[string][]byte
	writeOrder []string
	deps       map[types.TxID]types.Dependency
	depMetas   map[types.TxID]*types.TxMeta

	finished bool
	// submitted is the metadata Commit sent in ST1, nil before Commit.
	submitted *types.TxMeta
}

// Begin starts a transaction with a client-chosen timestamp (paper §4.1).
func (c *Client) Begin() *Txn {
	c.Stats.TxBegun.Add(1)
	t := &Txn{
		c:        c,
		ts:       types.Timestamp{Time: c.now(), ClientID: uint64(c.cfg.ID)},
		readKeys: make(map[string]bool),
		readVals: make(map[string][]byte),
		writes:   make(map[string][]byte),
		deps:     make(map[types.TxID]types.Dependency),
		depMetas: make(map[types.TxID]*types.TxMeta),
	}
	if c.timed {
		t.begun = time.Now()
	}
	// One sampling decision per transaction; the anchor is taken even when
	// unsampled so a mid-flight Force still yields a rooted trace.
	if c.tracer != nil {
		c.curTC, c.curRoot = c.tracer.Begin()
		c.curBegun = c.tracer.Now()
		c.forced = 0
	}
	return t
}

// Timestamp returns the transaction's MVTSO timestamp.
func (t *Txn) Timestamp() types.Timestamp { return t.ts }

// Write buffers a write (paper §4.1 Write); it becomes visible to others
// only once the transaction prepares.
func (t *Txn) Write(key string, value []byte) {
	if _, seen := t.writes[key]; !seen {
		t.writeOrder = append(t.writeOrder, key)
	}
	t.writes[key] = value
}

// readCandidate is one validated (version, value) option.
type readCandidate struct {
	version  types.Timestamp
	value    []byte
	prepared bool
	writer   *types.TxMeta
	writerID types.TxID
}

// versionKey is what read replies must agree on to corroborate each other:
// the version, the writer's transaction id and the value. Agreeing on the
// timestamp alone would let one Byzantine replica choose the value (and
// the dependency) of a version honest replicas reported.
type versionKey struct {
	version types.Timestamp
	writer  types.TxID
	value   string
}

// committedTally counts the replies reporting one committed version.
type committedTally struct {
	value []byte
	n     int
	// fetched is set once the version's certificate was fetched, whether
	// or not a valid one came back: it is fetched at most once per read.
	fetched bool
	added   bool
}

// preparedTally counts the replies reporting one prepared version; writer
// is the first reported metadata that hashes to the version's writer id.
type preparedTally struct {
	n      int
	writer *types.TxMeta
	added  bool
}

// Read returns the value of key visible at the transaction's timestamp
// (paper §4.1 Read): it broadcasts to ReadWait+f replicas, waits for
// ReadWait MAC-authenticated replies, validates them (f+1 agreement on
// version, writer and value for any version, or the fetched commit
// certificate of a committed version no f+1 replicas corroborate), and
// picks the highest-timestamped valid version. Reading a prepared version
// records a dependency on its writer.
func (t *Txn) Read(key string) ([]byte, error) {
	// Read-your-own-writes from the local buffer.
	if v, ok := t.writes[key]; ok {
		return v, nil
	}
	// Repeatable reads: once a version is chosen for a key it is fixed in
	// the read set, so repeat reads must serve the cached value. Re-asking
	// replicas could return a version newer than the recorded one,
	// diverging what the application saw from what ST1 validates.
	if t.readKeys[key] {
		return t.readVals[key], nil
	}
	c := t.c
	if c.timed {
		defer c.hRead.Since(time.Now())
	}
	if rdStart := c.tracer.Start(c.curTC); rdStart != 0 {
		defer func() { c.tracer.End(c.curTC, c.traceNode, "client.read", c.curRoot, rdStart) }()
	}
	shard := c.cfg.ShardOf(key)
	replicas := c.replicasOf(shard)
	fanout := c.cfg.ReadWait + c.cfg.F
	if fanout > len(replicas) {
		fanout = len(replicas)
	}

	attempt := 0
	for {
		reqID, ch := c.newRequest(len(replicas))
		req := &types.ReadRequest{ReqID: reqID, ClientID: uint64(c.cfg.ID), Key: key, Ts: t.ts, TC: c.curTC}
		if c.keys != nil {
			req.ClientKey = c.keys.Public()
		}
		n := fanout
		if attempt > 0 {
			n = len(replicas) // retry against the full shard
		}
		// Spread load: start at a rotating offset so replicas share the
		// f+1-read traffic. One SendAll = one body encode on the wire.
		off := int(reqID) % len(replicas)
		tos := make([]transport.Addr, n)
		for i := range tos {
			tos[i] = replicas[(off+i)%len(replicas)]
		}
		c.cfg.Net.SendAll(c.addr, tos, req)
		val, err := t.collectRead(key, shard, reqID, ch, tos)
		c.endRequest(reqID)
		if err == nil {
			return val, nil
		}
		attempt++
		if attempt > 3 {
			return nil, ErrTimeout
		}
		c.Stats.ReadRetries.Add(1)
		// Jittered backoff before the retry, floored at any RetryAfter an
		// overloaded replica handed us — never a tight resend loop.
		time.Sleep(c.retryDelay(attempt-1, c.takeRetryAfter()))
	}
}

// collectRead gathers replies until a valid choice exists. shard is the
// shard the request targeted and tos the replicas it went to; replies
// from any other shard are rejected even when correctly authenticated.
//
// A version becomes a candidate once f+1 replies report it identically
// (one reply with ReadWait = 1, Fig. 5b "one read"): at least one correct
// replica then holds it, which for a committed version is what its
// certificate would prove — that replica verified the certificate at
// writeback. Replies carry no certificates. Once ReadWait replies are in,
// the client fetches one (fetchCert) only for an uncorroborated committed
// version newer than every candidate, so the choice equals that of
// checking every certificate.
func (t *Txn) collectRead(key string, shard int32, reqID uint64, ch chan any, tos []transport.Addr) ([]byte, error) {
	c := t.c
	need := c.cfg.ReadWait
	valid := c.qc.ReadValidity()
	if need == 1 {
		valid = 1 // Fig. 5b "one read": no cross-validation
	}

	var (
		got       int
		cands     []readCandidate
		genCount  = make(map[string]int) // genesis value -> votes
		committed = make(map[versionKey]*committedTally)
		prepared  = make(map[versionKey]*preparedTally)
	)
	deadline := time.NewTimer(c.cfg.PhaseTimeout)
	defer deadline.Stop()
	var seen quorum.ReplicaSet
	for {
		select {
		case m := <-ch:
			if ov, isOv := m.(*types.Overloaded); isOv {
				// Shed: count it and keep the pacing hint for the retry in
				// Read's attempt loop (no resend from inside one attempt).
				c.noteOverloaded(ov)
				continue
			}
			rr, ok := m.(*types.ReadReply)
			if !ok || rr.Key != key {
				continue
			}
			// Every replica of every shard shares a valid MAC key with us,
			// so the MAC alone does not bind the reply to the shard we
			// asked: check the shard id and the replica index explicitly.
			// The key is that of SignerOf(shard, replica), so an index
			// past the shard's last replica names a replica of another
			// shard, whose reply would count as one more of this shard's.
			if rr.ShardID != shard || rr.ReplicaID < 0 || int(rr.ReplicaID) >= c.qc.N() || seen.Has(rr.ReplicaID) || !c.checkReadMAC(rr) {
				continue
			}
			seen.Add(rr.ReplicaID)
			got++
			if rr.Committed == nil && rr.Prepared == nil {
				// Key absent at this replica: a vote for the empty
				// genesis state (reads of never-written keys are legal
				// and return nil).
				genCount[""]++
				if genCount[""] == valid {
					cands = append(cands, readCandidate{})
				}
			}
			if cr := rr.Committed; cr != nil {
				switch {
				case cr.IsGenesis():
					// A genesis version with a timestamp is malformed.
					if !cr.Version().IsZero() {
						break
					}
					k := string(cr.Value)
					genCount[k]++
					if genCount[k] == valid {
						cands = append(cands, readCandidate{value: cr.Value})
					}
				case cr.Version().Less(t.ts):
					k := versionKey{cr.Version(), cr.WriterID, string(cr.Value)}
					ct := committed[k]
					if ct == nil {
						ct = &committedTally{value: cr.Value}
						committed[k] = ct
					}
					ct.n++
					if !ct.added && ct.n >= valid {
						ct.added = true
						cands = append(cands, readCandidate{version: k.version, value: cr.Value})
					}
				}
			}
			if pr := rr.Prepared; pr != nil && pr.WriterMeta != nil && pr.Version().Less(t.ts) {
				k := versionKey{pr.Version(), pr.WriterID, string(pr.Value)}
				pt := prepared[k]
				if pt == nil {
					pt = &preparedTally{}
					prepared[k] = pt
				}
				pt.n++
				if pt.writer == nil && validPreparedRead(key, pr) {
					pt.writer = pr.WriterMeta
				}
				if !pt.added && pt.n >= valid && pt.writer != nil {
					pt.added = true
					cands = append(cands, readCandidate{
						version: k.version, value: pr.Value, prepared: true,
						writer: pt.writer, writerID: k.writer,
					})
				}
			}
			if got >= need {
				var expired bool
				cands, expired = t.certifyNewer(key, shard, cands, committed, tos, deadline.C)
				if len(cands) > 0 {
					return t.chooseRead(key, cands), nil
				}
				if expired {
					return nil, ErrTimeout
				}
			}
		case <-deadline.C:
			// No time is left to fetch a certificate: an uncorroborated
			// version is dropped, which is always safe.
			if len(cands) > 0 {
				return t.chooseRead(key, cands), nil
			}
			return nil, ErrTimeout
		}
	}
}

// checkReadMAC reports whether rr carries a valid MAC from the replica it
// names. Under the NoProofs scheme there is no MAC to check.
func (c *Client) checkReadMAC(rr *types.ReadReply) bool {
	if c.keys == nil {
		return true
	}
	k, ok := c.keys.MACKey(c.cfg.Registry, c.cfg.SignerOf(rr.ShardID, rr.ReplicaID))
	return ok && cryptoutil.CheckReadMAC(&k, rr)
}

// certifyNewer adds to cands the newest uncorroborated committed version
// that is newer than every candidate and whose certificate one of the
// replicas in tos serves (fetchCert). A version whose fetch came back
// empty is dropped, and the next newest is tried; each is fetched at most
// once per read. It returns the extended candidate list, and whether the
// read's deadline fired during a fetch.
func (t *Txn) certifyNewer(key string, shard int32, cands []readCandidate, committed map[versionKey]*committedTally,
	tos []transport.Addr, deadline <-chan time.Time) ([]readCandidate, bool) {
	var best *types.Timestamp
	for i := range cands {
		if best == nil || best.Less(cands[i].version) {
			best = &cands[i].version
		}
	}
	for {
		var (
			next  *committedTally
			nextK versionKey
		)
		for k, ct := range committed {
			if ct.added || ct.fetched || (best != nil && !best.Less(k.version)) {
				continue
			}
			if next == nil || nextK.version.Less(k.version) {
				next, nextK = ct, k
			}
		}
		if next == nil {
			return cands, false
		}
		next.fetched = true
		ok, expired := t.fetchCert(key, shard, nextK, next, tos, deadline)
		if ok {
			next.added = true
			return append(cands, readCandidate{version: nextK.version, value: next.value}), false
		}
		if expired {
			return cands, true
		}
	}
}

// minCertGrace floors the grace window fetchCert gives the replicas
// that have not answered yet: on an in-process network a round trip takes
// microseconds, less than the scheduling jitter that can hold up an
// honest replica's reply.
const minCertGrace = time.Millisecond

// fetchCert asks every replica in tos for the metadata and certificate of
// the committed version k (a CertRequest) and reports whether a reply
// passed validCertReply. A reply counts only when its MAC binds it to a
// replica that was asked and has not answered yet, so a replica can
// answer only for itself, and at most one certificate per replica is
// checked. The fetch gives up on the version once every replica asked
// has answered without a valid certificate, or once all but f of them
// have and the rest have had as long again as that took (at least
// minCertGrace): the missing ones may all be faulty, and a correct one
// answers about as fast as the others. So up to f replicas that stay
// silent cost one round trip of the correct replicas, not the read's
// deadline. expired reports that deadline fired first.
func (t *Txn) fetchCert(key string, shard int32, k versionKey, ct *committedTally,
	tos []transport.Addr, deadline <-chan time.Time) (ok, expired bool) {
	c := t.c
	c.Stats.CertFetches.Add(1)
	reqID, ch := c.newRequest(len(tos))
	defer c.endRequest(reqID)
	start := time.Now()
	req := &types.CertRequest{ReqID: reqID, ClientID: uint64(c.cfg.ID), TxID: k.writer}
	if c.keys != nil {
		req.ClientKey = c.keys.Public()
	}
	c.cfg.Net.SendAll(c.addr, tos, req)
	var asked, answered quorum.ReplicaSet
	left := 0 // replicas asked, yet to answer
	for _, a := range tos {
		if asked.Add(a.Index) {
			left++
		}
	}
	opensGrace := max(left-c.qc.F, 1) // the answers that open the grace window
	var (
		graceT *time.Timer
		grace  <-chan time.Time
	)
	defer func() {
		if graceT != nil {
			graceT.Stop()
		}
	}()
	for heard := 0; left > 0; {
		var r *types.CertReply
		select {
		case m := <-ch:
			var isReply bool
			if r, isReply = m.(*types.CertReply); !isReply {
				continue // no shed reply is sent for a fetch
			}
		case <-grace:
			return false, false
		case <-deadline:
			return false, true
		}
		// As in collectRead: an index outside the shard names no
		// replica of it (a negative one no replica at all).
		if r.ShardID != shard || r.ReplicaID < 0 || int(r.ReplicaID) >= c.qc.N() ||
			!asked.Has(r.ReplicaID) || answered.Has(r.ReplicaID) || !c.checkCertMAC(r) {
			continue
		}
		answered.Add(r.ReplicaID)
		if c.validCertReply(key, k, ct.value, r) {
			return true, false
		}
		left--
		if heard++; heard == opensGrace && left > 0 {
			graceT = time.NewTimer(max(time.Since(start), minCertGrace))
			grace = graceT.C
		}
	}
	return false, false
}

// checkCertMAC reports whether r carries a valid MAC from the replica it
// names. Under the NoProofs scheme there is no MAC to check.
func (c *Client) checkCertMAC(r *types.CertReply) bool {
	if c.keys == nil {
		return true
	}
	k, ok := c.keys.MACKey(c.cfg.Registry, c.cfg.SignerOf(r.ShardID, r.ReplicaID))
	return ok && cryptoutil.CheckCertMAC(&k, r)
}

// validCertReply reports whether a fetched certificate proves the
// committed version k of key with the given value: H(Meta) must be the
// writer id the replies named, Meta's timestamp the version they named,
// Meta must write (key, value), and Cert must be a valid commit
// certificate for Meta.
func (c *Client) validCertReply(key string, k versionKey, value []byte, r *types.CertReply) bool {
	if r.Meta == nil || r.Cert == nil || r.Cert.Decision != types.DecisionCommit {
		return false
	}
	if r.Meta.Timestamp != k.version || !writesValue(r.Meta, key, value) || r.Meta.ID() != k.writer {
		return false
	}
	return c.qv.VerifyDecisionCert(r.Cert, r.Meta) == nil
}

// validPreparedRead reports whether a prepared reply's writer metadata is
// the writer it names and writes the value it reports: H(WriterMeta) must
// equal WriterID and (key, Value) must be in the write set. Checked before
// the version can become a dependency.
func validPreparedRead(key string, pr *types.PreparedRead) bool {
	return writesValue(pr.WriterMeta, key, pr.Value) && pr.WriterMeta.ID() == pr.WriterID
}

// writesValue reports whether meta's write set holds (key, value).
func writesValue(meta *types.TxMeta, key string, value []byte) bool {
	for _, w := range meta.WriteSet {
		if w.Key == key && string(w.Value) == string(value) {
			return true
		}
	}
	return false
}

// chooseRead picks the highest-timestamped valid candidate, records the
// read entry and (for prepared versions) the dependency.
func (t *Txn) chooseRead(key string, cands []readCandidate) []byte {
	best := cands[0]
	for _, cd := range cands[1:] {
		if best.version.Less(cd.version) {
			best = cd
		}
	}
	if !t.readKeys[key] {
		t.reads = append(t.reads, types.ReadEntry{Key: key, Version: best.version})
		t.readKeys[key] = true
		t.readVals[key] = best.value
	}
	if best.prepared && best.writer != nil {
		id := best.writerID
		if _, dup := t.deps[id]; !dup {
			t.deps[id] = types.Dependency{TxID: id, Version: best.version}
			t.depMetas[id] = best.writer
			t.c.Stats.DepsAcquired.Add(1)
		}
	}
	return best.value
}

// Abort abandons the transaction, releasing read timestamps (paper §4.1
// Abort). Writes were never visible.
func (t *Txn) Abort() {
	if t.finished {
		return
	}
	t.finished = true
	t.c.Stats.TxAborted.Add(1)
	t.c.tracer.Finish(t.c.curTC, t.c.traceNode, t.c.curRoot, t.c.curBegun, "abort")
	if len(t.reads) == 0 {
		return
	}
	byShard := make(map[int32][]string)
	for _, r := range t.reads {
		s := t.c.cfg.ShardOf(r.Key)
		byShard[s] = append(byShard[s], r.Key)
	}
	for s, keys := range byShard {
		t.c.broadcastShard(s, &types.AbortRead{ClientID: uint64(t.c.cfg.ID), Ts: t.ts, Keys: keys})
	}
}

// MetaSnapshot returns the transaction's metadata as it would be (or was)
// submitted in ST1. Used by the verification harness to rebuild committed
// histories; safe to call after Commit. After Commit it is the submitted
// metadata itself, which replicas may hold, so a harness that records
// every committed transaction keeps no second copy; the caller must not
// modify it.
func (t *Txn) MetaSnapshot() *types.TxMeta {
	if t.submitted != nil {
		return t.submitted
	}
	return t.buildMeta()
}

// buildMeta assembles the signed transaction metadata.
func (t *Txn) buildMeta() *types.TxMeta {
	meta := &types.TxMeta{Timestamp: t.ts}
	meta.ReadSet = append(meta.ReadSet, t.reads...)
	for _, k := range t.writeOrder {
		meta.WriteSet = append(meta.WriteSet, types.WriteEntry{Key: k, Value: t.writes[k]})
	}
	for _, d := range t.deps {
		meta.Deps = append(meta.Deps, d)
	}
	sort.Slice(meta.Deps, func(i, j int) bool {
		return string(meta.Deps[i].TxID[:]) < string(meta.Deps[j].TxID[:])
	})
	shardSet := make(map[int32]bool)
	for _, r := range meta.ReadSet {
		shardSet[t.c.cfg.ShardOf(r.Key)] = true
	}
	for _, w := range meta.WriteSet {
		shardSet[t.c.cfg.ShardOf(w.Key)] = true
	}
	for s := range shardSet {
		meta.Shards = append(meta.Shards, s)
	}
	sort.Slice(meta.Shards, func(i, j int) bool { return meta.Shards[i] < meta.Shards[j] })
	return meta
}

// Commit runs the Prepare and Writeback phases (paper §4.2–4.3). It
// returns nil if the transaction committed and ErrAborted if any shard
// voted abort.
func (t *Txn) Commit() error {
	if t.finished {
		return ErrAborted
	}
	t.finished = true
	if t.c.timed {
		defer t.c.hCommit.Since(time.Now())
	}
	if len(t.reads) == 0 && len(t.writes) == 0 {
		t.c.Stats.TxCommitted.Add(1)
		t.c.hTxn.Since(t.begun)
		t.c.tracer.Finish(t.c.curTC, t.c.traceNode, t.c.curRoot, t.c.curBegun, "commit")
		return nil // empty transaction commits trivially
	}
	meta := t.buildMeta()
	t.submitted = meta
	dec, err := t.c.runPrepare(meta, t.depMetas)
	if err != nil {
		t.c.Stats.TxAborted.Add(1)
		t.c.tracer.Finish(t.c.curTC, t.c.traceNode, t.c.curRoot, t.c.curBegun, "failed")
		return err
	}
	if dec == types.DecisionCommit {
		t.c.Stats.TxCommitted.Add(1)
		t.c.hTxn.Since(t.begun)
		t.c.tracer.Finish(t.c.curTC, t.c.traceNode, t.c.curRoot, t.c.curBegun, "commit")
		return nil
	}
	t.c.Stats.TxAborted.Add(1)
	t.c.tracer.Finish(t.c.curTC, t.c.traceNode, t.c.curRoot, t.c.curBegun, "abort")
	return ErrAborted
}
