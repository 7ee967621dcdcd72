package replica

import (
	"repro/internal/cryptoutil"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/types"
)

// onRead handles the execution-phase read (paper §4.1 step 2): enforce the
// δ bound, record the RTS, and return the latest committed and prepared
// versions below the transaction timestamp, MACed under the key this
// replica shares with the requesting client. No signature: the reply
// convinces only that client, never a third party (see cryptoutil/mac.go).
// The committed branch names its version and writer but carries neither
// the writer's metadata nor its certificate; a client that needs them
// fetches them (onCert).
func (r *Replica) onRead(from transport.Addr, m *types.ReadRequest) {
	if r.cfg.Byzantine != nil && r.cfg.Byzantine.DropRead(m.Key) {
		return
	}
	if !r.withinDelta(m.Ts) {
		// Paper: the replica ignores over-δ requests. The client's read
		// quorum absorbs the silence.
		return
	}
	var key cryptoutil.MACKey
	if r.macKeys != nil {
		var ok bool
		if key, ok = r.macKeys.Key(m.ClientKey); !ok {
			// No valid exchange key: the client could not check any
			// reply we sent.
			return
		}
	}
	r.Stats.Reads.Add(1)
	res := r.store.Read(m.Key, m.Ts)
	reply := &types.ReadReply{
		ReqID:     m.ReqID,
		Key:       m.Key,
		ShardID:   r.cfg.Shard,
		ReplicaID: r.cfg.Index,
		Committed: res.Committed,
		Prepared:  res.Prepared,
	}
	if r.macKeys != nil {
		reply.MAC = cryptoutil.SumReadMAC(&key, reply)
	}
	r.send(from, reply)
}

// onCert answers a client's certificate fetch from the store: the
// writer's metadata and commit certificate when this replica holds the
// transaction committed with one, an empty reply otherwise (unknown,
// prepared, aborted, or collected by GC). The reply is MACed like a read
// reply, so no other replica can answer in this one's name.
func (r *Replica) onCert(from transport.Addr, m *types.CertRequest) {
	var key cryptoutil.MACKey
	if r.macKeys != nil {
		var ok bool
		if key, ok = r.macKeys.Key(m.ClientKey); !ok {
			return // the client could not check the reply
		}
	}
	reply := &types.CertReply{ReqID: m.ReqID, ShardID: r.cfg.Shard, ReplicaID: r.cfg.Index}
	if rec, ok := r.store.Tx(m.TxID); ok && rec.Status == store.StatusCommitted && rec.Cert != nil {
		reply.Meta, reply.Cert = rec.Meta, rec.Cert
	}
	if r.macKeys != nil {
		reply.MAC = cryptoutil.SumCertMAC(&key, reply)
	}
	r.send(from, reply)
}

// shedCert answers a certificate fetch that admission shed with an empty
// reply, which the client counts as this replica's answer, where an
// Overloaded would be unauthenticated. It MACs the reply only under a key
// already in the cache (the client's read just put it there) and drops
// the request otherwise, so a shed costs no key exchange whatever key
// the request names.
func (r *Replica) shedCert(from transport.Addr, m *types.CertRequest) {
	reply := &types.CertReply{ReqID: m.ReqID, ShardID: r.cfg.Shard, ReplicaID: r.cfg.Index}
	if r.macKeys != nil {
		key, ok := r.macKeys.Cached(m.ClientKey)
		if !ok {
			return
		}
		reply.MAC = cryptoutil.SumCertMAC(&key, reply)
	}
	r.send(from, reply)
}

// withinDelta implements the timestamp admission bound: accept iff
// ts.Time ≤ local clock + δ.
func (r *Replica) withinDelta(ts types.Timestamp) bool {
	return ts.Time <= r.cfg.Clock.NowMicros()+r.cfg.DeltaMicros
}
